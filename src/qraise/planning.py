"""STRIPS-style planning with formula preconditions, and its QBF encoding.

Actions are pairs of an arbitrary precondition formula and a literal list
of effects. ``plan_exists`` does breadth-first reachability over the full
``2^|fluents|`` state graph, so answers are exact and returned plans are
shortest.

``base_reduction`` turns a matrix into a single action that sets the goal
when the matrix holds. ``raise_existential`` adds a one-shot chooser for a
variable and latches it with a guard fluent. ``raise_universal`` adds a
three-action gadget: enter the true branch, flip to the false branch once
the current goal is reached, and finish once it is reached again. The flip
action also clears every control fluent introduced so far; without that,
stale goal flags from the first branch let later gadgets fire without
re-verification, and inner choosers stay latched, so nested quantifiers
would decide the wrong QBF.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ContractError, ParseError, QraiseError
from .formulas import And, Formula, Not, Var, evaluate, substitute, truth_table, universe, variables
from .parsing import parse_formula, serialize_formula
from .qbf import Qbf, Quantifier

# Target interface (see harness.TARGETS): name, fixture suffix, prefix shape.
NAME, SUFFIX, SHAPE = "planning", "plan", "any"

GOAL_VAR = "a"

# Hard cap on the fluent count for plan search (2^|fluents| states).
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
    matrix_action: str

    def __post_init__(self):
        fluent_set = set(self.fluents)
        if len(fluent_set) != len(self.fluents):
            raise ContractError("duplicate fluent names")
        if self.goal not in fluent_set:
            raise ContractError(f"goal {self.goal!r} is not a fluent")
        if not self.initial <= fluent_set:
            raise ContractError("initial state mentions unknown fluents")
        names = [act.name for act in self.actions]
        if len(set(names)) != len(names):
            raise ContractError("duplicate action names")
        if self.matrix_action not in names:
            raise ContractError(f"unknown matrix action {self.matrix_action!r}")
        for act in self.actions:
            loose = (variables(act.precondition) | {n for n, _ in act.effects}) - fluent_set
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


def plan_exists(instance: PlanningInstance) -> tuple[bool, tuple[str, ...] | None]:
    """Breadth-first search over the whole state graph; plans are shortest."""
    # Declaration order, not sorted: the constructions declare control
    # fluents last, so they take the high bits, reachable states are large
    # numbers and ``table >> state`` stays short.
    u = universe(instance.fluents, FLUENT_CAP, "fluents")
    order = u.order
    goal_bit = 1 << order[instance.goal]
    compiled = []
    for idx, act in enumerate(instance.actions):
        table = truth_table(act.precondition, order, u.width)
        set_mask = 0
        clear_mask = 0
        for name, value in act.effects:
            if value:
                set_mask |= 1 << order[name]
            else:
                clear_mask |= 1 << order[name]
        compiled.append((idx, table, set_mask, clear_mask))
    start = 0
    for name in instance.initial:
        start |= 1 << order[name]
    parents: dict[int, tuple[int, int]] = {}
    seen = {start}
    frontier = deque([start])
    goal_state = start if start & goal_bit else None
    while frontier and goal_state is None:
        state = frontier.popleft()
        for idx, table, set_mask, clear_mask in compiled:
            if not table >> state & 1:
                continue
            successor = (state | set_mask) & ~clear_mask
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
    """Decide ``instance``; a found plan is replayed by ``validate_plan``
    before it is reported, and the detail lists its steps."""
    found, plan = plan_exists(instance)
    if not found:
        return False, ""
    if not validate_plan(instance, plan or ()):
        raise QraiseError(f"plan failed replay: {' '.join(plan or ())}")
    return True, f"plan={' '.join(plan or ())}"


def validate_plan(instance: PlanningInstance, plan: Sequence[str]) -> bool:
    """Independent replay: execute each step on dict states and check the goal."""
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
        matrix_action=instance.matrix_action,
    )


MATRIX_ACTION = "apply-matrix"


def base_instance(matrix: Formula, fluents: Sequence[str]) -> PlanningInstance:
    """One action ``<matrix, {a}>`` over ``fluents``; every raise starts from it."""
    return PlanningInstance(
        fluents=tuple(fluents),
        initial=frozenset(),
        goal=GOAL_VAR,
        actions=(Action(MATRIX_ACTION, matrix, ((GOAL_VAR, True),)),),
        matrix_action=MATRIX_ACTION,
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
    return tuple(
        Action(act.name, And(Var(guard), act.precondition), act.effects) for act in actions
    )


def _check_fresh(instance: PlanningInstance, names: Sequence[str]) -> None:
    for fresh in names:
        if fresh in instance.fluents:
            raise ContractError(f"fresh name {fresh!r} already occurs in the instance")


def raise_existential(instance: PlanningInstance, name: str, index: int) -> PlanningInstance:
    """Add a one-shot value chooser for ``name`` in front of the instance."""
    if name not in instance.fluents:
        raise ContractError(f"{name!r} is not a fluent of the instance")
    guard = f"_p{index}"
    _check_fresh(instance, [guard])
    choose = Not(Var(guard))
    return PlanningInstance(
        fluents=instance.fluents + (guard,),
        initial=instance.initial,
        goal=instance.goal,
        actions=_guard_all(instance.actions, guard)
        + (
            Action(f"choose-{name}-true", choose, ((name, True), (guard, True))),
            Action(f"choose-{name}-false", choose, ((name, False), (guard, True))),
        ),
        matrix_action=instance.matrix_action,
    )


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
    guard, done = f"_p{index}", f"_b{index}"
    _check_fresh(instance, [guard, done])
    resets = sorted(control_fluents(instance) - {instance.goal})
    flip_effects = ((name, False), (instance.goal, False)) + tuple((f, False) for f in resets)
    old_goal = Var(instance.goal)
    return PlanningInstance(
        fluents=instance.fluents + (done, guard),
        initial=instance.initial,
        goal=done,
        actions=_guard_all(instance.actions, guard)
        + (
            Action(f"enter-{name}", Not(Var(guard)), ((name, True), (guard, True))),
            Action(f"flip-{name}", And(old_goal, Var(name)), flip_effects),
            Action(f"finish-{name}", And(old_goal, Not(Var(name))), ((done, True),)),
        ),
        matrix_action=instance.matrix_action,
    )


def reduce_qbf(q: Qbf) -> PlanningInstance:
    """Equivalid plan-existence instance for any closed QBF."""
    prefix_names = [name for _, name in q.prefix]
    if GOAL_VAR in prefix_names:
        raise ContractError(f"prefix uses the reserved goal name {GOAL_VAR!r}")
    reserved = [n for n in prefix_names if n.startswith("_")]
    if reserved:
        raise ContractError(f"prefix uses reserved names: {', '.join(sorted(reserved))}")
    return raise_prefix(base_instance(q.matrix, prefix_names + [GOAL_VAR]), q.prefix)


def raise_prefix(
    instance: PlanningInstance, prefix: Sequence[tuple[Quantifier, str]]
) -> PlanningInstance:
    """Raise ``instance`` over ``prefix``, innermost variable first; the
    ``k``-th raise gets index ``k``."""
    for index, (quant, name) in enumerate(reversed(prefix), start=1):
        if quant is Quantifier.EXISTS:
            instance = raise_existential(instance, name, index)
        else:
            instance = raise_universal(instance, name, index)
    return instance


# --- instance text format ----------------------------------------------------

def serialize_instance(instance: PlanningInstance) -> str:
    """Render the instance; the matrix action is always the first action line."""
    ordered = [a for a in instance.actions if a.name == instance.matrix_action] + [
        a for a in instance.actions if a.name != instance.matrix_action
    ]
    lines = [
        f"fluents: {' '.join(instance.fluents)}",
        "init: " + " ".join(f"{f}={int(f in instance.initial)}" for f in instance.fluents),
        f"goal: {instance.goal}",
    ]
    for act in ordered:
        effects = " ".join(f"{n}" if v else f"!{n}" for n, v in act.effects)
        lines.append(f"action {act.name}: {serialize_formula(act.precondition)} => {effects}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> PlanningInstance:
    fluents: tuple[str, ...] | None = None
    initial: set[str] = set()
    goal: str | None = None
    actions: list[Action] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("fluents:"):
            fluents = tuple(line[len("fluents:"):].split())
        elif line.startswith("init:"):
            for item in line[len("init:"):].split():
                name, _, bit = item.partition("=")
                if bit not in ("0", "1"):
                    raise ParseError(f"bad init entry {item!r}", lineno, 1)
                if bit == "1":
                    initial.add(name)
        elif line.startswith("goal:"):
            goal = line[len("goal:"):].strip()
        elif line.startswith("action "):
            header, _, body = line[len("action "):].partition(":")
            if not _:
                raise ParseError("action line needs a ':'", lineno, 1)
            pre_text, sep, eff_text = body.partition("=>")
            if not sep:
                raise ParseError("action line needs '=>'", lineno, 1)
            effects = []
            for lit in eff_text.split():
                if lit.startswith("!"):
                    effects.append((lit[1:], False))
                else:
                    effects.append((lit, True))
            actions.append(Action(header.strip(), parse_formula(pre_text), tuple(effects)))
        else:
            raise ParseError("expected 'fluents:', 'init:', 'goal:', or 'action' line", lineno, 1)
    if fluents is None or goal is None or not actions:
        raise ParseError("instance needs fluents, a goal, and at least one action", 1, 1)
    return PlanningInstance(
        fluents=fluents,
        initial=frozenset(initial),
        goal=goal,
        actions=tuple(actions),
        matrix_action=actions[0].name,
    )


serialize = serialize_instance
parse = parse_instance
