"""STRIPS-style planning with formula preconditions, and its QBF encoding.

Actions are pairs of an arbitrary precondition formula and a literal list
of effects. ``plan_exists`` does depth-first search from the initial state
and visits only the states it reaches, so answers are exact; a returned
plan replays but need not be shortest. A state is an integer with one bit
per fluent, in the instance's fluent order. Each precondition is compiled
once into a literal test, ``state & care == want``, and a truth table over
its remaining variables, whose index is gathered from the state in runs of
adjacent fluent bits. The literal tests are memoized: states that agree on
the bits any literal test reads pass the same actions, so the tuple of
passing actions is made once per such key and reused, and only the actions
with a remainder then look up their table. The search keeps one dict, each
reached state's parent, and reads the plan back from it. It is held to
``STATE_CAP`` reached states, a budget on the work done rather than on the
instance's size. A valid reduction runs down one chain of gadget states to
its goal, so those of 28-variable QBFs (71 fluents) decide within it. An
invalid one reaches every reachable state first, and some of 18 variables
pass it.

``base_reduction`` turns a matrix into a single action that sets the goal
when the matrix holds; every raise keeps that action first.
``raise_existential`` adds a one-shot chooser for a variable and latches it
with a guard fluent. ``raise_universal`` adds a three-action gadget: enter
the true branch, flip to the false branch once the current goal is
reached, and finish once it is reached again. The flip action also clears
every control fluent introduced so far; without that, stale goal flags
from the first branch let later gadgets fire without re-verification, and
inner choosers stay latched, so nested quantifiers would decide the wrong
QBF. Each raise wraps every older precondition in its guard.
Both public raises and ``reduce_qbf`` build through one loop over
``(quantifier, name)`` steps, a raise one step and a reduction its whole
prefix. It writes each gadget once and wraps each precondition in the
guards of the later steps at the end, so each ``Action`` is built once, and
each guard, done flag and goal ``Var`` is shared by every precondition.

``Action`` and ``PlanningInstance`` are plain frozen dataclasses, and
building either checks nothing. ``check_instance`` holds every rule on an
instance: its names must fit together, and no action may write a fluent
twice. ``plan_exists`` calls it first, so a chain of raises is checked once
per decision, not once per raise. Its one walk over each precondition also
splits it for ``plan_exists`` into the literal test and the other
conjuncts. ``validate_plan`` applies the same rules, with the same
messages, from a walk that only gathers each precondition's names.
``solve`` replays a found plan on dict states with ``formulas.evaluate``,
without checking the instance again.

``parse_instance`` reads the text format. Each action header is one name.
It keeps each ``init:`` and ``goal:`` name with its place and checks them
against the declared fluents in one loop at the end, so a ``goal:`` line
may come before the ``fluents:`` line. A repeated fluent or action name is
rejected where it repeats.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Sequence

from .errors import ContractError, ParseError, QraiseError, check_cap
from .formulas import NAME_RE, And, Const, Formula, Iff, Implies, Not, Or, Var, check_formula
from .formulas import conjunction, evaluate, size, substitute, truth_table, universe, variables
from .parsing import instance_lines, parse_formula, parse_literals, parse_names, parse_one_name
from .parsing import serialize_formula
from .qbf import Qbf, Quantifier, raise_prefix, random_matrix, random_prefix, split_prefix

# Target interface (see harness.TARGETS): name, fixture suffix, prefix shape.
NAME, SUFFIX, SHAPE = "planning", "plan", "any"

GOAL_VAR = "a"

# Hard cap on the states one plan search may reach. An instance of up to 18
# fluents has at most 2^18 states, so it never reaches the cap.
STATE_CAP = 2**18

State = Mapping[str, bool]


@dataclass(frozen=True, slots=True)
class Action:
    """A named precondition formula and its effect literals, in order.

    Building one checks nothing: ``check_instance`` rejects effects that
    write a fluent twice, with every other rule on names."""

    name: str
    precondition: Formula
    effects: tuple[tuple[str, bool], ...]


@dataclass(frozen=True, slots=True)
class PlanningInstance:
    fluents: tuple[str, ...]
    initial: frozenset[str]  # fluents that start true; all others start false
    goal: str
    actions: tuple[Action, ...]


def _fluent_order(instance: PlanningInstance) -> dict[str, int]:
    """Each fluent's bit, once the fluent, goal, initial and action names
    fit together."""
    order = {name: i for i, name in enumerate(instance.fluents)}
    if len(order) != len(instance.fluents):
        raise ContractError("duplicate fluent names")
    if instance.goal not in order:
        raise ContractError(f"goal {instance.goal!r} is not a fluent")
    stray = instance.initial.difference(order)
    if stray:
        raise ContractError(f"initial state mentions unknown fluents: {', '.join(sorted(stray))}")
    names = [act.name for act in instance.actions]
    if len(set(names)) != len(names):
        raise ContractError("duplicate action names")
    return order


def _check_action(act: Action, read: AbstractSet[str], order: Mapping[str, int]) -> None:
    """Reject an action whose effects write a fluent twice, or that names a
    fluent outside ``order`` in them or in ``read``, its precondition's
    names."""
    written = {name for name, _ in act.effects}
    if len(written) != len(act.effects):
        raise ContractError(f"action {act.name!r} writes a fluent twice")
    loose = (written | read).difference(order)
    if loose:
        raise ContractError(
            f"action {act.name!r} mentions unknown fluents: {', '.join(sorted(loose))}"
        )


def check_instance(
    instance: PlanningInstance,
) -> list[tuple[int, int, list[Formula], set[str]]]:
    """Reject an instance whose fluent and action names do not fit together;
    else split each precondition, in the walk that checks its names, into
    ``(must_set, must_clear, rest, read)``: the fluent bits of the literal
    conjuncts of its top-level ``And`` tree, its other conjuncts, and their
    variables. Unknown fluents are named, sorted: those of the initial
    state, or those of the first action that mentions any. An action whose
    effects write a fluent twice is rejected before its names are looked up.
    """
    order = _fluent_order(instance)
    splits = []
    for act in instance.actions:
        must_set = must_clear = 0
        rest: list[Formula] = []
        stack = [act.precondition]  # the top-level And tree
        while stack:
            node = stack.pop()
            cls = node.__class__
            if cls is And:
                stack.append(node.right)
                stack.append(node.left)
            elif cls is Var and node.name in order:
                must_set |= 1 << order[node.name]
            elif cls is Not and node.operand.__class__ is Var and node.operand.name in order:
                must_clear |= 1 << order[node.operand.name]
            else:  # a literal of an unknown fluent too: its name is read below
                rest.append(node)
        read: set[str] = set()
        stack = rest.copy()  # then the nodes below rest's conjuncts
        while stack:
            node = stack.pop()
            cls = node.__class__
            if cls is Var:
                read.add(node.name)
            elif cls is Not:
                stack.append(node.operand)
            elif cls is And or cls is Or or cls is Implies or cls is Iff:
                stack.append(node.left)
                stack.append(node.right)
            elif cls is not Const:
                check_formula(node)
        _check_action(act, read, order)
        splits.append((must_set, must_clear, rest, read))
    return splits


def executable(action: Action, state: State) -> bool:
    return evaluate(action.precondition, state)


def apply_action(action: Action, state: State) -> dict[str, bool]:
    """Set each effect literal; everything else is unchanged."""
    result = dict(state)
    for name, value in action.effects:
        result[name] = value
    return result


def initial_state(instance: PlanningInstance) -> dict[str, bool]:
    return {name: name in instance.initial for name in instance.fluents}


def control_fluents(instance: PlanningInstance) -> frozenset[str]:
    """Bookkeeping fluents added by the constructions (goal flags and guards).

    Identified by the reserved naming scheme: the base goal plus any
    ``_p``/``_b`` guard introduced by a raise.
    """
    return frozenset(
        name
        for name in instance.fluents
        if name == GOAL_VAR or name.startswith("_p") or name.startswith("_b")
    )


def _precondition_test(
    rest: Sequence[Formula], read: set[str], order: Mapping[str, int]
) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """Tabulate the non-literal conjuncts ``rest`` of a precondition, as
    ``check_instance`` splits it, over their variables ``read`` in the
    order of the fluent bits ``order``. Returns ``(runs, table)``; a state
    passes when bit ``index`` of ``table`` is set. ``index`` is gathered
    from the state in runs of adjacent fluent bits: each ``(position, mask,
    shift)`` of ``runs`` adds ``(state >> position & mask) << shift``. A
    remainder over fluents ``0..k-1``, as a reduction's matrix is, is one
    run.
    """
    if not rest:
        return (), 1
    u = universe(sorted(read, key=order.__getitem__), what="precondition variables")
    spans: list[list[int]] = []  # [position, length, shift] of each run
    for name, shift in u.order.items():
        position = order[name]
        if spans and position == spans[-1][0] + spans[-1][1]:
            spans[-1][1] += 1
        else:
            spans.append([position, 1, shift])
    runs = tuple((position, (1 << length) - 1, shift) for position, length, shift in spans)
    return runs, truth_table(conjunction(rest), u.order, u.width)


# A compiled action in plan search: its first gather run's position and
# mask (0 without a remainder), the other runs, its table, set_mask,
# keep_mask (the complement of the bits it clears) and its index.
_Entry = tuple[int, int, tuple[tuple[int, int, int], ...], int, int, int, int]


def plan_exists(instance: PlanningInstance) -> tuple[bool, tuple[str, ...] | None]:
    """Depth-first search over the states reachable from the initial one.
    Each popped state pushes its new successors in reverse action order, so
    the first passing action's is popped first, and the goal is tested when
    a state is first reached. A plan need not be shortest.

    Each action is compiled from ``check_instance``'s split, and only its
    non-literal conjuncts are walked again, to tabulate them. Each literal
    test is ``state & care == want``, and every ``care`` lies within
    ``lit_mask``, so states that agree on ``lit_mask`` pass the same
    literal tests: the actions passing them are listed once per ``state &
    lit_mask`` and reused. Only those actions with a remainder then test
    their truth table. An action that can never fire is dropped up front.
    Kept, it could fire: with ``x & !x`` it passes ``care``/``want``
    wherever ``x`` is set, and a remainder without variables (``true &
    false``) has no runs, so its table of 0 is never looked up.

    ``parents`` maps each reached state to the state it was first reached
    from. The action taken is not stored: the plan is read back by finding,
    for each step, the first passing action in action order that leads from
    the parent to the child. More than ``STATE_CAP`` reached states stop the
    search with a ``ResourceLimitError``. The memo holds at most one entry
    per popped state, so the cap bounds it too.
    """
    splits = check_instance(instance)
    order = {name: i for i, name in enumerate(instance.fluents)}
    goal_bit = 1 << order[instance.goal]
    compiled = []
    lit_mask = 0
    for idx, (must_set, must_clear, rest, read) in enumerate(splits):
        runs, table = _precondition_test(rest, read, order)
        if must_set & must_clear or not table:
            continue
        set_mask = 0
        clear_mask = 0
        for name, value in instance.actions[idx].effects:
            if value:
                set_mask |= 1 << order[name]
            else:
                clear_mask |= 1 << order[name]
        care = must_set | must_clear
        lit_mask |= care
        # The first run always has shift 0: it is read inline, the rest in a loop.
        position, mask, _ = runs[0] if runs else (0, 0, 0)
        entry = (position, mask, runs[1:], table, set_mask, ~clear_mask, idx)
        compiled.append((care, must_set, entry))
    compiled.reverse()  # so each memo tuple lists its actions last to first
    start = 0
    for name in instance.initial:
        start |= 1 << order[name]
    if start & goal_bit:
        return True, ()
    # state & lit_mask -> the entries of the actions whose literal test
    # passes, in reverse action order
    passing: dict[int, tuple[_Entry, ...]] = {}
    parents: dict[int, int | None] = {start: None}
    stack = [start]
    while stack:
        state = stack.pop()
        key = state & lit_mask
        candidates = passing.get(key)
        if candidates is None:
            candidates = passing[key] = tuple(
                [entry for care, want, entry in compiled if key & care == want]
            )
        for position, mask, more, table, set_mask, keep_mask, _ in candidates:
            if mask:
                index = state >> position & mask
                if more:
                    for position, mask, shift in more:
                        index |= (state >> position & mask) << shift
                if not table >> index & 1:
                    continue
            successor = (state | set_mask) & keep_mask
            if successor in parents:
                continue
            parents[successor] = state
            if len(parents) > STATE_CAP:
                check_cap(len(parents), "states", "STATE_CAP", STATE_CAP)
            if successor & goal_bit:
                return True, _read_plan(instance, successor, parents, passing, lit_mask)
            stack.append(successor)
    return False, None


def _read_plan(
    instance: PlanningInstance,
    goal_state: int,
    parents: Mapping[int, int | None],
    passing: Mapping[int, tuple[_Entry, ...]],
    lit_mask: int,
) -> tuple[str, ...]:
    """The actions from the initial state to ``goal_state``: at each step,
    the first of the parent's passing actions, in action order, that fires
    there and leads to the child."""
    steps: list[str] = []
    child = goal_state
    state = parents[child]
    while state is not None:
        for position, mask, more, table, set_mask, keep_mask, idx in reversed(
            passing[state & lit_mask]
        ):
            if (state | set_mask) & keep_mask != child:
                continue
            index = state >> position & mask
            for position, mask, shift in more:
                index |= (state >> position & mask) << shift
            if table >> index & 1:
                steps.append(instance.actions[idx].name)
                break
        child, state = state, parents[state]
    return tuple(reversed(steps))


def solve(instance: PlanningInstance) -> tuple[bool, str]:
    """Decide ``instance``; a found plan is replayed before it is reported,
    and the detail lists its steps."""
    found, plan = plan_exists(instance)
    if not found:
        return False, ""
    if not _replay(instance, plan or ()):
        raise QraiseError(f"plan failed replay: {' '.join(plan or ())}")
    return True, f"plan={' '.join(plan or ())}"


def validate_plan(instance: PlanningInstance, plan: Sequence[str]) -> bool:
    """Independent replay: execute each step on dict states and check the
    goal. The instance is rejected as ``check_instance`` rejects it, by one
    walk per precondition that gathers its names and splits nothing."""
    order = _fluent_order(instance)
    for act in instance.actions:
        _check_action(act, variables(act.precondition), order)
    return _replay(instance, plan)


def _replay(instance: PlanningInstance, plan: Sequence[str]) -> bool:
    by_name = {act.name: act for act in instance.actions}
    state = initial_state(instance)
    for step in plan:
        action = by_name.get(step)
        if action is None or not executable(action, state):
            return False
        state = apply_action(action, state)
    return state[instance.goal]


def substitute_fluent(instance: PlanningInstance, name: str, value: bool) -> PlanningInstance:
    """Fix a fluent: substitute it in preconditions and drop it from the instance.

    Only legal while no action writes the fluent, which holds for every
    constructed instance before the fluent's own raise.
    """
    if name == instance.goal:
        raise ContractError("cannot fix the goal fluent")
    for act in instance.actions:
        if any(eff_name == name for eff_name, _ in act.effects):
            raise ContractError(f"action {act.name!r} writes {name!r}; cannot fix it")
    return PlanningInstance(
        fluents=tuple(f for f in instance.fluents if f != name),
        initial=instance.initial - {name},
        goal=instance.goal,
        actions=tuple(
            Action(act.name, substitute(act.precondition, name, value), act.effects)
            for act in instance.actions
        ),
    )


MATRIX_ACTION = "apply-matrix"


def base_instance(matrix: Formula, fluents: Sequence[str]) -> PlanningInstance:
    """One action ``<matrix, {a}>`` over ``fluents``; every raise starts from it."""
    return PlanningInstance(
        fluents=tuple(fluents),
        initial=frozenset(),
        goal=GOAL_VAR,
        actions=(Action(MATRIX_ACTION, matrix, ((GOAL_VAR, True),)),),
    )


def base_reduction(matrix: Formula) -> PlanningInstance:
    """Instance with a plan iff the matrix holds in the all-false state."""
    names = variables(matrix)
    if GOAL_VAR in names:
        raise ContractError(f"matrix uses the reserved goal name {GOAL_VAR!r}")
    reserved = [n for n in names if n.startswith("_")]
    if reserved:
        raise ContractError(f"matrix uses reserved names: {', '.join(sorted(reserved))}")
    return base_instance(matrix, sorted(names) + [GOAL_VAR])


def _check_fresh(instance: PlanningInstance, names: Sequence[str]) -> None:
    for fresh in names:
        if fresh in instance.fluents:
            raise ContractError(f"fresh name {fresh!r} already occurs in the instance")


# An action before it is built: (name, precondition, effects).
_ActionParts = tuple[str, Formula, tuple[tuple[str, bool], ...]]


def _gadget(
    quant: Quantifier, name: str, index: int, guard: Var, goal: Var, resets: Sequence[str]
) -> tuple[tuple[str, ...], Var, tuple[_ActionParts, ...]]:
    """Raise ``index`` of ``name`` without its guard on the older actions:
    the fluents it adds, the goal after it, and the parts of its new
    actions. ``guard`` is the raise's guard ``_p<index>``, ``goal`` the goal
    before it, and ``resets`` are the control fluents a universal flip
    clears. The gadget's preconditions share these ``Var`` nodes."""
    unlatched = Not(guard)
    latch = (guard.name, True)
    if quant is Quantifier.EXISTS:
        return (guard.name,), goal, (
            (f"choose-{name}-true", unlatched, ((name, True), latch)),
            (f"choose-{name}-false", unlatched, ((name, False), latch)),
        )
    done = Var(f"_b{index}")
    var = Var(name)
    flip_effects = ((name, False), (goal.name, False)) + tuple((f, False) for f in resets)
    return (done.name, guard.name), done, (
        (f"enter-{name}", unlatched, ((name, True), latch)),
        (f"flip-{name}", And(goal, var), flip_effects),
        (f"finish-{name}", And(goal, Not(var)), ((done.name, True),)),
    )


def _raise_steps(
    fluents: Sequence[str],
    initial: frozenset[str],
    goal: str,
    actions: Sequence[_ActionParts],
    controls: Iterable[str],
    steps: Sequence[tuple[Quantifier, str]],
    index: int,
) -> PlanningInstance:
    """The one raise loop: raise the instance of these fields over checked
    ``steps``, innermost first, step ``k`` (from 0) as raise ``index + k``.
    ``controls`` are its control fluents; each step adds its fresh ones, and
    a universal flip clears all but the goal before it. Each action is built
    once, at the end, under the guards of the steps after the one adding it."""
    fluents = [*fluents]
    controls = [*controls]
    top = Var(goal)
    guards = [Var(f"_p{k}") for k in range(index, index + len(steps))]
    parts = [(0, *part) for part in actions]
    for k, ((quant, name), guard) in enumerate(zip(steps, guards), start=1):
        resets = sorted(c for c in controls if c != top.name) if quant is Quantifier.FORALL else ()
        fresh, top, gadget = _gadget(quant, name, index + k - 1, guard, top, resets)
        fluents += fresh
        controls += fresh
        parts += [(k, *part) for part in gadget]
    built = []
    for raised_at, act_name, precondition, effects in parts:
        for guard in guards[raised_at:]:
            precondition = And(guard, precondition)
        built.append(Action(act_name, precondition, effects))
    return PlanningInstance(tuple(fluents), initial, top.name, tuple(built))


def _parts(instance: PlanningInstance) -> tuple:
    """``instance`` as the first five arguments of ``_raise_steps``."""
    actions = [(act.name, act.precondition, act.effects) for act in instance.actions]
    return instance.fluents, instance.initial, instance.goal, actions, control_fluents(instance)


def raise_existential(instance: PlanningInstance, name: str, index: int) -> PlanningInstance:
    """Add a one-shot value chooser for ``name`` in front of the instance."""
    if name not in instance.fluents:
        raise ContractError(f"{name!r} is not a fluent of the instance")
    _check_fresh(instance, [f"_p{index}"])
    return _raise_steps(*_parts(instance), [(Quantifier.EXISTS, name)], index)


def raise_universal(instance: PlanningInstance, name: str, index: int) -> PlanningInstance:
    """Demand the current goal, which exactly one action may set, under both
    values of ``name``. The flip action restores every control fluent to
    false, so the inner machinery re-runs from scratch on the false branch."""
    if name not in instance.fluents:
        raise ContractError(f"{name!r} is not a fluent of the instance")
    setters = [act for act in instance.actions if (instance.goal, True) in act.effects]
    if len(setters) != 1:
        raise ContractError(
            f"goal {instance.goal!r} must be set by exactly one action, found {len(setters)}"
        )
    _check_fresh(instance, [f"_p{index}", f"_b{index}"])
    return _raise_steps(*_parts(instance), [(Quantifier.FORALL, name)], index)


# The raise for each quantifier; every prefix shape is supported.
RAISES = {Quantifier.EXISTS: raise_existential, Quantifier.FORALL: raise_universal}


def reduce_qbf(q: Qbf) -> PlanningInstance:
    """Equivalid plan-existence instance for any closed QBF: the fold of
    ``RAISES`` over the prefix from ``base_instance``, as one call of their
    loop, ``_raise_steps``, on the whole prefix. Once no prefix name is
    reserved, every check of the public raises holds, so the loop starts
    from the matrix action's parts and the one control fluent ``a``."""
    prefix, _ = split_prefix(q, SHAPE)
    prefix_names = [name for _, name in prefix]
    if GOAL_VAR in prefix_names:
        raise ContractError(f"prefix uses the reserved goal name {GOAL_VAR!r}")
    reserved = [n for n in prefix_names if n.startswith("_")]
    if reserved:
        raise ContractError(f"prefix uses reserved names: {', '.join(sorted(reserved))}")
    matrix_action = (MATRIX_ACTION, q.matrix, ((GOAL_VAR, True),))
    base = (prefix_names + [GOAL_VAR], frozenset(), GOAL_VAR, [matrix_action], [GOAL_VAR])
    return _raise_steps(*base, prefix[::-1], 1)


# --- lemma check and growth (see harness.check_lemma, measure_growth) ---------

def sample_merge(
    rng: random.Random, num_vars: int, depth: int
) -> tuple[PlanningInstance, str, Qbf | None]:
    """Draw a QBF of one to ``num_vars`` variables, raise all but its
    outermost variable, and test that variable's merge: a plan must exist
    after the last raise exactly when one exists in the OR (existential) or
    the AND (universal) of the two branches. Returns the instance before
    the last raise, ``""`` or what broke, and the QBF."""
    names = tuple(f"x{i + 1}" for i in range(rng.randint(1, num_vars)))
    prefix = random_prefix(rng, names, "any")
    matrix = random_matrix(rng, names, depth)
    instance = raise_prefix(base_instance(matrix, [*names, GOAL_VAR]), prefix[1:], RAISES)
    quant, name = prefix[0]
    on_true = plan_exists(substitute_fluent(instance, name, True))[0]
    on_false = plan_exists(substitute_fluent(instance, name, False))[0]
    exists = quant is Quantifier.EXISTS
    expected = (on_true or on_false) if exists else (on_true and on_false)
    actual = plan_exists(RAISES[quant](instance, name, len(prefix)))[0]
    failure = (
        f"{'OR' if exists else 'AND'}-merge on {name}: branches=({on_true},{on_false})"
        f" merged={actual}"
    )
    return instance, "" if actual == expected else failure, Qbf(prefix, matrix)


def growth(n_raises: int) -> tuple[int, list[tuple[int, ...]], tuple[tuple[str, bool], ...]]:
    """Raise ``n_raises`` times, universal and existential in turn, over a
    tautology. Returns the matrix size, one row (raises, fluents, actions,
    total size, largest action) per step, where an action's size is its
    precondition's plus its effect count, and the verdicts on the bound: a
    linear action count, and each raise adds one guard to a precondition."""
    matrix = Or(Var("x1"), Not(Var("x1")))
    names = [f"x{i + 1}" for i in range(max(1, n_raises))]
    instance = base_instance(matrix, names + [GOAL_VAR])
    m = size(matrix)
    rows = []
    # Each raise conjoins one guard (2 nodes) onto every earlier precondition,
    # so after k raises no precondition should exceed matrix + 2k + constant.
    precondition_bound = True
    for k in range(n_raises + 1):
        if k:
            instance = (raise_universal if k % 2 else raise_existential)(instance, names[k - 1], k)
        pre_sizes = [size(act.precondition) for act in instance.actions]
        sizes = [s + len(act.effects) for s, act in zip(pre_sizes, instance.actions)]
        rows.append((k, len(instance.fluents), len(instance.actions), sum(sizes), max(sizes)))
        precondition_bound &= max(pre_sizes) <= m + 2 * k + 3
    return m, rows, (
        ("actions <= 3n+1", all(row[2] <= 3 * row[0] + 1 for row in rows)),
        ("precondition size <= matrix + 2n + 3", precondition_bound),
    )


# --- instance text format ----------------------------------------------------

def serialize_instance(instance: PlanningInstance) -> str:
    """Render the instance, its actions in order (the matrix action first)."""
    lines = [
        f"fluents: {' '.join(instance.fluents)}",
        "init: " + " ".join(f"{f}={int(f in instance.initial)}" for f in instance.fluents),
        f"goal: {instance.goal}",
    ]
    for act in instance.actions:
        effects = " ".join(f"{n}" if v else f"!{n}" for n, v in act.effects)
        lines.append(f"action {act.name}: {serialize_formula(act.precondition)} => {effects}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> PlanningInstance:
    """Read an instance; an ``init:`` entry or a ``goal:`` that names no
    declared fluent is a ``ParseError`` at the first such name. A second
    ``fluents:``, ``init:`` or ``goal:`` line, a fluent or action name read
    twice, and an action header that is not exactly one name are
    ``ParseError``s there too."""
    fluents: tuple[str, ...] | None = None
    initial: set[str] = set()
    goal: str | None = None
    declared: set[str] = set()  # the fluents: names
    actions: dict[str, Action] = {}  # in file order
    named: list[tuple[str, str, int, int]] = []  # each init: and goal: name, keyword, line, column
    keywords = ("fluents:", "init:", "goal:", "action ")
    read: set[str | None] = set()  # the keywords of the lines read so far, but "action "
    for keyword, body, line, column in instance_lines(text, keywords):
        if keyword in read:
            raise ParseError(f"second {keyword!r} line", line, column - len(keyword))
        if keyword != "action ":
            read.add(keyword)
        if keyword == "fluents:":
            fluents = tuple(parse_names(body, line, column))
            for entry in re.finditer(r"\S+", body):
                if entry[0] in declared:
                    at = column + entry.start()
                    raise ParseError(f"fluents: names {entry[0]!r} twice", line, at)
                declared.add(entry[0])
        elif keyword == "init:":
            given: set[str] = set()
            for entry in re.finditer(r"\S+", body):
                name, _, bit = entry[0].partition("=")
                at = column + entry.start()
                if bit not in ("0", "1") or not NAME_RE.match(name):
                    raise ParseError(f"bad init entry {entry[0]!r}", line, at)
                if name in given:
                    raise ParseError(f"init: names {name!r} twice", line, at)
                given.add(name)
                named.append((name, keyword, line, at))
                if bit == "1":
                    initial.add(name)
        elif keyword == "goal:":
            goal = parse_one_name(body, line, column)
            named.append((goal, keyword, line, column + len(body) - len(body.lstrip())))
        elif keyword:
            header, colon, rest = body.partition(":")
            pre_text, arrow, eff_text = rest.partition("=>")
            if not (colon and arrow):
                message = "action line needs '=>'" if colon else "action line needs a ':'"
                raise ParseError(message, line, column - len(keyword))
            name = header.strip()
            if not NAME_RE.match(name):
                raise ParseError(f"expected one action name, found {name!r}", line, column)
            if name in actions:
                at = column + len(header) - len(header.lstrip())
                raise ParseError(f"second action named {name!r}", line, at)
            at = column + len(header) + 1  # where the precondition starts
            precondition = parse_formula(pre_text, line, at)
            effects = parse_literals(eff_text, line, at + len(pre_text) + 2)
            actions[name] = Action(name, precondition, tuple(effects))
        else:
            raise ParseError(
                "expected 'fluents:', 'init:', 'goal:', or 'action' line", line, column
            )
    if fluents is None or goal is None or not actions:
        raise ParseError("instance needs fluents, a goal, and at least one action", 1, 1)
    for name, keyword, line, column in named:
        if name not in declared:
            raise ParseError(f"{keyword} names unknown fluent {name!r}", line, column)
    return PlanningInstance(
        fluents=fluents,
        initial=frozenset(initial),
        goal=goal,
        actions=tuple(actions.values()),
    )


serialize = serialize_instance
parse = parse_instance
