"""Propositional formulas as immutable ASTs, plus exact semantic checks.

Formulas are plain trees; nothing here simplifies. ``substitute`` leaves
``!true`` and friends in place — downstream constructions copy formulas
into larger structures and count their nodes, so the shape of a
substituted formula must stay predictable.

``consistent`` and ``entails`` decide by full enumeration of assignments.
Internally the enumeration is vectorized: a formula's truth table over an
ordered variable universe is a single big integer whose bit ``j`` is the
formula's value under the assignment encoded by ``j``. All connectives
then become integer bit operations, which keeps exhaustive checks over
~20 variables affordable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import ContractError, EvaluationError, ResourceLimitError

# Hard cap on the assignment universe for consistent()/entails(). Exceeding
# it raises ResourceLimitError rather than silently sampling.
ENTAILMENT_VAR_CAP = 22

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_+^-]*\Z")


def check_name(name: str) -> str:
    """Validate a variable name, returning it unchanged."""
    if not _NAME_RE.match(name):
        raise ContractError(f"invalid variable name: {name!r}")
    return name


class Formula:
    """Base class for AST nodes. Instances are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(Formula):
    value: bool


@dataclass(frozen=True, slots=True)
class Var(Formula):
    name: str

    def __post_init__(self):
        check_name(self.name)


@dataclass(frozen=True, slots=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


TRUE = Const(True)
FALSE = Const(False)

_BINARY = (And, Or, Implies, Iff)


def variables(f: Formula) -> frozenset[str]:
    """The set of variable names occurring in ``f``."""
    out: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, _BINARY):
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(out)


def size(f: Formula) -> int:
    """Number of AST nodes in ``f``."""
    total = 0
    stack = [f]
    while stack:
        node = stack.pop()
        total += 1
        if isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, _BINARY):
            stack.append(node.left)
            stack.append(node.right)
    return total


def substitute(f: Formula, name: str, value: bool) -> Formula:
    """Replace every occurrence of variable ``name`` with the constant ``value``.

    Purely syntactic: no simplification is performed. Untouched subtrees are
    shared with the input.
    """
    const = TRUE if value else FALSE
    if isinstance(f, Var):
        return const if f.name == name else f
    if isinstance(f, Const):
        return f
    if isinstance(f, Not):
        child = substitute(f.operand, name, value)
        return f if child is f.operand else Not(child)
    left = substitute(f.left, name, value)  # type: ignore[union-attr]
    right = substitute(f.right, name, value)  # type: ignore[union-attr]
    if left is f.left and right is f.right:  # type: ignore[union-attr]
        return f
    return type(f)(left, right)  # type: ignore[call-arg]


def evaluate(f: Formula, assignment: Mapping[str, bool]) -> bool:
    """Truth value of ``f`` under a (total enough) assignment."""
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Var):
        try:
            return assignment[f.name]
        except KeyError:
            raise EvaluationError(f"unbound variable: {f.name}") from None
    if isinstance(f, Not):
        return not evaluate(f.operand, assignment)
    if isinstance(f, And):
        return evaluate(f.left, assignment) and evaluate(f.right, assignment)
    if isinstance(f, Or):
        return evaluate(f.left, assignment) or evaluate(f.right, assignment)
    if isinstance(f, Implies):
        return (not evaluate(f.left, assignment)) or evaluate(f.right, assignment)
    if isinstance(f, Iff):
        return evaluate(f.left, assignment) == evaluate(f.right, assignment)
    raise TypeError(f"not a formula node: {f!r}")


def conjunction(fs: Iterable[Formula]) -> Formula:
    """Left-nested conjunction of ``fs``; ``true`` when empty."""
    result: Formula | None = None
    for f in fs:
        result = f if result is None else And(result, f)
    return TRUE if result is None else result


# --- truth tables as big integers -------------------------------------------

@lru_cache(maxsize=None)
def _wave(position: int, width: int) -> int:
    """Truth table of the bare variable at ``position`` in a ``width``-variable
    universe: bit ``j`` of the result is ``(j >> position) & 1``."""
    half = 1 << position
    pattern = ((1 << half) - 1) << half
    span = half << 1
    total = 1 << width
    while span < total:
        pattern |= pattern << span
        span <<= 1
    return pattern


def truth_table(f: Formula, order: Mapping[str, int], width: int) -> int:
    """Truth table of ``f`` as a ``2**width``-bit integer.

    ``order`` maps each variable of ``f`` to its bit position in the
    assignment index.
    """
    full = (1 << (1 << width)) - 1
    if isinstance(f, Const):
        return full if f.value else 0
    if isinstance(f, Var):
        try:
            return _wave(order[f.name], width)
        except KeyError:
            raise EvaluationError(f"unbound variable: {f.name}") from None
    if isinstance(f, Not):
        return full ^ truth_table(f.operand, order, width)
    left = truth_table(f.left, order, width)  # type: ignore[union-attr]
    right = truth_table(f.right, order, width)  # type: ignore[union-attr]
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Implies):
        return (full ^ left) | right
    return full ^ (left ^ right)  # Iff


@dataclass(frozen=True, slots=True)
class Universe:
    """Truth-table bit layout: each variable's bit position in the assignment
    index, the variable count, and the all-true table."""

    order: Mapping[str, int]
    width: int
    full: int


def universe(
    names: Iterable[str], cap: int = ENTAILMENT_VAR_CAP, what: str = "variables"
) -> Universe:
    """Lay ``names`` out in the order given, since the order decides which
    names take the low bits; callers sort for a canonical layout. More than
    ``cap`` names raise ResourceLimitError."""
    order = {name: i for i, name in enumerate(dict.fromkeys(names))}
    if len(order) > cap:
        raise ResourceLimitError(f"{len(order)} {what} exceed the cap of {cap}")
    return Universe(order, len(order), (1 << (1 << len(order))) - 1)


def consistent(formulas: Iterable[Formula]) -> bool:
    """True iff some assignment over the formulas' variables satisfies all of them."""
    fs = list(formulas)
    u = universe(sorted(set().union(*map(variables, fs))))
    table = u.full
    for f in fs:
        table &= truth_table(f, u.order, u.width)
        if not table:
            return False
    return True


def entails(formulas: Iterable[Formula], goal: Formula) -> bool:
    """True iff every assignment satisfying all ``formulas`` satisfies ``goal``."""
    fs = list(formulas)
    u = universe(sorted(set().union(*map(variables, fs + [goal]))))
    premises = u.full
    for f in fs:
        premises &= truth_table(f, u.order, u.width)
        if not premises:
            return True
    return premises & (u.full ^ truth_table(goal, u.order, u.width)) == 0
