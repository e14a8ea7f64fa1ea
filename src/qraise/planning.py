"""STRIPS-style planning with formula preconditions, and its QBF encoding.

Actions are pairs of an arbitrary precondition formula and a literal list
of effects. ``plan_exists`` does breadth-first search from the initial
state and visits only the states it reaches, so answers are exact and
returned plans are shortest. A state is an integer with one bit per
fluent, in the instance's fluent order. Each precondition is compiled once
into a literal test, ``state & care == want``, and a truth table over its
remaining variables. The literal tests are memoized: states that agree on
the bits any literal test reads pass the same actions, so the list of
passing actions is made once per such key and reused, and only the actions
with a remainder then look up their table. ``plan_exists`` holds the
fluent count to ``FLUENT_CAP``, since up to ``2^|fluents|`` states may be
reachable.

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
``reduce_qbf`` builds the same instance as folding ``RAISES`` over the
prefix, in one pass: it writes each gadget once, with the raise that added
it, and wraps each precondition in the guards of the later raises at the
end, so it builds every ``Action`` once.

Building an instance checks nothing. ``check_instance`` rejects one whose
names do not fit together, and ``plan_exists`` and ``validate_plan`` call it
first, so a chain of raises is checked once per decision, not once per raise.
It walks each precondition once, with one stack. ``solve`` replays a found
plan on dict states with ``formulas.evaluate``, without checking the
instance again.
"""

from __future__ import annotations

import random
import re
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ContractError, ParseError, QraiseError, ResourceLimitError
from .formulas import And, Const, Formula, Not, Or, Var, conjunction, evaluate, size, substitute
from .formulas import truth_table, universe, variables
from .parsing import instance_lines, parse_formula, serialize_formula
from .qbf import Qbf, Quantifier, raise_prefix, random_matrix, random_prefix, split_prefix

# Target interface (see harness.TARGETS): name, fixture suffix, prefix shape.
NAME, SUFFIX, SHAPE = "planning", "plan", "any"

GOAL_VAR = "a"

# Hard cap on the fluent count for plan search (up to 2^|fluents| reachable states).
FLUENT_CAP = 18

State = Mapping[str, bool]


@dataclass(frozen=True, slots=True)
class Action:
    name: str
    precondition: Formula
    effects: tuple[tuple[str, bool], ...]

    def __post_init__(self):
        written = [name for name, _ in self.effects]
        if len(set(written)) != len(written):
            raise ContractError(f"action {self.name!r} writes a fluent twice")


@dataclass(frozen=True, slots=True)
class PlanningInstance:
    fluents: tuple[str, ...]
    initial: frozenset[str]  # fluents that start true; all others start false
    goal: str
    actions: tuple[Action, ...]


def check_instance(instance: PlanningInstance) -> None:
    """Reject an instance whose fluent and action names do not fit together.

    Each precondition is walked once with an explicit stack; the first
    action that names a fluent outside the instance is reported.
    """
    fluent_set = set(instance.fluents)
    if len(fluent_set) != len(instance.fluents):
        raise ContractError("duplicate fluent names")
    if instance.goal not in fluent_set:
        raise ContractError(f"goal {instance.goal!r} is not a fluent")
    if not instance.initial <= fluent_set:
        raise ContractError("initial state mentions unknown fluents")
    names = [act.name for act in instance.actions]
    if len(set(names)) != len(names):
        raise ContractError("duplicate action names")
    for act in instance.actions:
        loose = {name for name, _ in act.effects if name not in fluent_set}
        stack = [act.precondition]
        while stack:
            node = stack.pop()
            cls = node.__class__
            if cls is Var:
                if node.name not in fluent_set:
                    loose.add(node.name)
            elif cls is Not:
                stack.append(node.operand)
            elif cls is not Const:
                stack.append(node.left)
                stack.append(node.right)
        if loose:
            raise ContractError(
                f"action {act.name!r} mentions unknown fluents: {', '.join(sorted(loose))}"
            )


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
    precondition: Formula, order: Mapping[str, int]
) -> tuple[int, int, tuple[tuple[int, int], ...], int]:
    """Compile ``precondition`` into a state test over the fluent bits ``order``.

    Returns ``(must_set, must_clear, gather, table)``. The literal conjuncts
    of the top-level ``And`` tree become the two masks; the conjunction of
    the other conjuncts is tabulated over its own variables only. A state
    passes when it has every ``must_set`` bit, no ``must_clear`` bit, and
    bit ``index`` of ``table`` is set, where ``index`` gathers the state's
    bit ``position`` into bit ``i`` for each ``(i, position)`` of ``gather``.
    """
    must_set = must_clear = 0
    rest: list[Formula] = []
    stack = [precondition]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Var):
            must_set |= 1 << order[node.name]
        elif isinstance(node, Not) and isinstance(node.operand, Var):
            must_clear |= 1 << order[node.operand.name]
        else:
            rest.append(node)
    if not rest:
        return must_set, must_clear, (), 1
    remainder = conjunction(rest)
    u = universe(sorted(variables(remainder), key=order.__getitem__))
    gather = tuple((i, order[name]) for name, i in u.order.items())
    return must_set, must_clear, gather, truth_table(remainder, u.order, u.width)


def plan_exists(instance: PlanningInstance) -> tuple[bool, tuple[str, ...] | None]:
    """Breadth-first search over the states reachable from the initial one;
    plans are shortest.

    Each action's literal test is ``state & care == want``, and every
    ``care`` lies within ``lit_mask``, so states that agree on ``lit_mask``
    pass the same literal tests: the actions passing them are listed once
    per ``state & lit_mask`` and reused. Only those actions with a
    remainder then test their truth table. An action that can never fire
    is dropped up front. Kept, it could fire: with ``x & !x`` it passes
    ``care``/``want`` wherever ``x`` is set, and a remainder without
    variables (``true & false``) has an empty ``gather``, so its table of
    0 is never looked up. The memo holds one list per distinct key, so
    where the literal tests read every fluent it holds one per popped state.
    """
    check_instance(instance)
    order = {name: i for i, name in enumerate(instance.fluents)}
    if len(order) > FLUENT_CAP:
        raise ResourceLimitError(f"{len(order)} fluents exceed the cap of {FLUENT_CAP}")
    goal_bit = 1 << order[instance.goal]
    compiled = []
    lit_mask = 0
    for idx, act in enumerate(instance.actions):
        must_set, must_clear, gather, table = _precondition_test(act.precondition, order)
        if must_set & must_clear or not table:
            continue
        set_mask = 0
        clear_mask = 0
        for name, value in act.effects:
            if value:
                set_mask |= 1 << order[name]
            else:
                clear_mask |= 1 << order[name]
        care = must_set | must_clear
        lit_mask |= care
        compiled.append((care, must_set, (idx, gather, table, set_mask, ~clear_mask)))
    start = 0
    for name in instance.initial:
        start |= 1 << order[name]
    # state & lit_mask -> (idx, gather, table, set_mask, keep_mask) of the
    # actions whose literal test passes, in action order
    passing: dict[int, list[tuple[int, tuple[tuple[int, int], ...], int, int, int]]] = {}
    parents: dict[int, tuple[int, int]] = {}
    seen = {start}
    frontier = deque([start])
    goal_state = start if start & goal_bit else None
    while frontier and goal_state is None:
        state = frontier.popleft()
        key = state & lit_mask
        candidates = passing.get(key)
        if candidates is None:
            candidates = passing[key] = [
                entry for care, want, entry in compiled if key & care == want
            ]
        for idx, gather, table, set_mask, keep_mask in candidates:
            if gather:
                index = 0
                for i, position in gather:
                    index |= (state >> position & 1) << i
                if not table >> index & 1:
                    continue
            successor = (state | set_mask) & keep_mask
            if successor in seen:
                continue
            seen.add(successor)
            parents[successor] = (state, idx)
            if successor & goal_bit:
                goal_state = successor
                break
            frontier.append(successor)
    if goal_state is None:
        return False, None
    steps: list[str] = []
    cursor = goal_state
    while cursor != start:
        cursor, idx = parents[cursor]
        steps.append(instance.actions[idx].name)
    return True, tuple(reversed(steps))


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
    """Independent replay: execute each step on dict states and check the goal."""
    check_instance(instance)
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


def _guard_all(actions: Sequence[Action], guard: str) -> tuple[Action, ...]:
    var = Var(guard)
    return tuple(Action(act.name, And(var, act.precondition), act.effects) for act in actions)


def _check_fresh(instance: PlanningInstance, names: Sequence[str]) -> None:
    for fresh in names:
        if fresh in instance.fluents:
            raise ContractError(f"fresh name {fresh!r} already occurs in the instance")


# An action before it is built: (name, precondition, effects).
_ActionParts = tuple[str, Formula, tuple[tuple[str, bool], ...]]


def _gadget(
    quant: Quantifier, name: str, index: int, goal: str, resets: Sequence[str]
) -> tuple[tuple[str, ...], str, tuple[_ActionParts, ...]]:
    """Raise ``index`` of ``name`` without its guard on the older actions:
    the fluents it adds, the goal after it, and the parts of its new
    actions. ``goal`` is the goal before it, and ``resets`` are the control
    fluents a universal flip clears."""
    guard = f"_p{index}"
    if quant is Quantifier.EXISTS:
        choose = Not(Var(guard))
        return (guard,), goal, (
            (f"choose-{name}-true", choose, ((name, True), (guard, True))),
            (f"choose-{name}-false", choose, ((name, False), (guard, True))),
        )
    done = f"_b{index}"
    flip_effects = ((name, False), (goal, False)) + tuple((f, False) for f in resets)
    old_goal = Var(goal)
    return (done, guard), done, (
        (f"enter-{name}", Not(Var(guard)), ((name, True), (guard, True))),
        (f"flip-{name}", And(old_goal, Var(name)), flip_effects),
        (f"finish-{name}", And(old_goal, Not(Var(name))), ((done, True),)),
    )


def _raised(
    instance: PlanningInstance, quant: Quantifier, name: str, index: int, resets: Sequence[str]
) -> PlanningInstance:
    """A checked public raise: every older action under the new guard, then the gadget."""
    fresh, goal, parts = _gadget(quant, name, index, instance.goal, resets)
    return PlanningInstance(
        fluents=instance.fluents + fresh,
        initial=instance.initial,
        goal=goal,
        actions=_guard_all(instance.actions, f"_p{index}") + tuple(Action(*p) for p in parts),
    )


def raise_existential(instance: PlanningInstance, name: str, index: int) -> PlanningInstance:
    """Add a one-shot value chooser for ``name`` in front of the instance."""
    if name not in instance.fluents:
        raise ContractError(f"{name!r} is not a fluent of the instance")
    _check_fresh(instance, [f"_p{index}"])
    return _raised(instance, Quantifier.EXISTS, name, index, ())


def raise_universal(instance: PlanningInstance, name: str, index: int) -> PlanningInstance:
    """Demand the current goal under both values of ``name``.

    Requires the current goal to be set by exactly one action. The flip
    action restores every previously added control fluent to false so the
    inner machinery re-runs from scratch on the false branch.
    """
    if name not in instance.fluents:
        raise ContractError(f"{name!r} is not a fluent of the instance")
    setters = [
        act
        for act in instance.actions
        if any(eff == (instance.goal, True) for eff in act.effects)
    ]
    if len(setters) != 1:
        raise ContractError(
            f"goal {instance.goal!r} must be set by exactly one action, found {len(setters)}"
        )
    _check_fresh(instance, [f"_p{index}", f"_b{index}"])
    resets = sorted(control_fluents(instance) - {instance.goal})
    return _raised(instance, Quantifier.FORALL, name, index, resets)


# The raise for each quantifier; every prefix shape is supported.
RAISES = {Quantifier.EXISTS: raise_existential, Quantifier.FORALL: raise_universal}


def reduce_qbf(q: Qbf) -> PlanningInstance:
    """Equivalid plan-existence instance for any closed QBF.

    Equal to ``raise_prefix(base_instance(...), prefix, RAISES)``, built in
    one pass. Once no prefix name is reserved, the checks of the public
    raises always hold: every prefix name is a fluent, every guard and done
    flag is new, exactly one action sets each goal, and the control fluents
    are the goal ``a`` and the fluents the raises so far added. So each
    gadget is made once, each action remembers the raise that added it,
    and at the end its precondition is wrapped in the guards of the later
    raises, innermost first.
    """
    prefix, _ = split_prefix(q, SHAPE)
    prefix_names = [name for _, name in prefix]
    if GOAL_VAR in prefix_names:
        raise ContractError(f"prefix uses the reserved goal name {GOAL_VAR!r}")
    reserved = [n for n in prefix_names if n.startswith("_")]
    if reserved:
        raise ContractError(f"prefix uses reserved names: {', '.join(sorted(reserved))}")
    fluents = prefix_names + [GOAL_VAR]
    goal = GOAL_VAR
    controls = [GOAL_VAR]
    parts = [(0, MATRIX_ACTION, q.matrix, ((GOAL_VAR, True),))]
    for index, (quant, name) in enumerate(reversed(prefix), start=1):
        resets = sorted(c for c in controls if c != goal) if quant is Quantifier.FORALL else ()
        fresh, goal, gadget = _gadget(quant, name, index, goal, resets)
        fluents += fresh
        controls += fresh
        parts += [(index, *part) for part in gadget]
    guards = [Var(f"_p{index}") for index in range(1, len(prefix) + 1)]
    actions = []
    for raised_at, act_name, precondition, effects in parts:
        for guard in guards[raised_at:]:
            precondition = And(guard, precondition)
        actions.append(Action(act_name, precondition, effects))
    return PlanningInstance(tuple(fluents), frozenset(), goal, tuple(actions))


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
    fluents: tuple[str, ...] | None = None
    initial: set[str] = set()
    goal: str | None = None
    actions: list[Action] = []
    keywords = ("fluents:", "init:", "goal:", "action ")
    for keyword, body, line, column in instance_lines(text, keywords):
        if keyword == "fluents:":
            fluents = tuple(body.split())
        elif keyword == "init:":
            for item in body.split():
                name, _, bit = item.partition("=")
                if bit not in ("0", "1"):
                    entry = next(m for m in re.finditer(r"\S+", body) if m[0] == item)
                    raise ParseError(f"bad init entry {item!r}", line, column + entry.start())
                if bit == "1":
                    initial.add(name)
        elif keyword == "goal:":
            goal = body.strip()
        elif keyword:
            header, colon, rest = body.partition(":")
            pre_text, arrow, eff_text = rest.partition("=>")
            if not (colon and arrow):
                message = "action line needs '=>'" if colon else "action line needs a ':'"
                raise ParseError(message, line, column - len(keyword))
            effects = []
            for lit in eff_text.split():
                if lit.startswith("!"):
                    effects.append((lit[1:], False))
                else:
                    effects.append((lit, True))
            precondition = parse_formula(pre_text, line, column + len(header) + 1)
            actions.append(Action(header.strip(), precondition, tuple(effects)))
        else:
            raise ParseError(
                "expected 'fluents:', 'init:', 'goal:', or 'action' line", line, column
            )
    if fluents is None or goal is None or not actions:
        raise ParseError("instance needs fluents, a goal, and at least one action", 1, 1)
    return PlanningInstance(
        fluents=fluents,
        initial=frozenset(initial),
        goal=goal,
        actions=tuple(actions),
    )


serialize = serialize_instance
parse = parse_instance
