"""Closed quantified boolean formulas, two independent validity deciders,
and the prefix handling every reduction shares.

``qbf_valid`` recurses on the prefix with one assignment: it sets the
outermost variable to true, then to false, stops at the value that decides
its quantifier (true for exists, false for forall), and evaluates the
unchanged matrix at each leaf with ``formulas.evaluate_reading``, the
evaluator plan replay uses too, which dispatches through one method per
node class. Each leaf evaluation records the names it reads, and a
variable whose true branch neither decides nor reads it is not tried at
false: the evaluation is deterministic, so a branch that never
reads the variable takes the same path, and gives the same result, under
either value (a simple form of the backjumping of QBF solvers; Cadoli,
Giovanardi & Schaerf 1998). ``qbf_valid_by_table`` builds no assignment:
it tabulates the matrix over all prefix assignments with
``formulas.truth_table``, in its own bit order (prefix order, outermost
variable lowest), and folds the table one quantifier level at a time. The
two must always agree; each guards the other.

``QBF_VAR_CAP`` bounds the prefix of both. The walk sets it: on the worst
case, all ∀ with the matrix P ∨ ¬P where P is an ↔ chain over every
variable, each of the 2^n leaves is evaluated, and at 18 variables that
takes 0.70-0.79 s (nproc=2, Python 3.11.7) and at 19 1.4-1.9 s. The
table takes about a millisecond at either size.

A reduction is a base instance followed by one raise per quantifier.
``split_prefix`` cuts a prefix into the outer and inner block of a target's
shape, and ``raise_prefix`` applies the raises, innermost variable first.
``random_prefix`` and ``random_matrix`` draw the random QBFs of the harness
and the random instances of each target's ``sample_merge``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence, TypeVar

from .errors import ContractError, UnsupportedShapeError, check_cap
from .formulas import And, Const, Formula, Iff, Implies, Not, Or, Var
from .formulas import evaluate_reading, truth_table, variables

# Hard cap on the prefix length for both deciders; the walk's time sets it.
QBF_VAR_CAP = 18


class Quantifier(Enum):
    EXISTS = "exists"
    FORALL = "forall"


Prefix = tuple[tuple[Quantifier, str], ...]

# The outer and inner block quantifiers of each two-block shape: "ea" is
# exists*-forall*, "ae" forall*-exists*. Shape "any" takes every prefix.
SHAPE_BLOCKS = {
    "ea": (Quantifier.EXISTS, Quantifier.FORALL),
    "ae": (Quantifier.FORALL, Quantifier.EXISTS),
}

_ADJECTIVE = {Quantifier.EXISTS: "existential", Quantifier.FORALL: "universal"}

# The binary connectives the generators draw from.
CONNECTIVES: tuple[Callable[[Formula, Formula], Formula], ...] = (And, Or, Implies, Iff)


def two_blocks(names: Sequence[str], split: int, shape: str) -> Prefix:
    """The first ``split`` names in the outer block of ``shape``, the rest in the inner."""
    outer, inner = SHAPE_BLOCKS[shape]
    return tuple((outer if i < split else inner, name) for i, name in enumerate(names))


def random_prefix(rng: random.Random, names: Sequence[str], shape: str) -> Prefix:
    """A prefix of ``shape`` over ``names``, drawn from ``rng``."""
    if shape in SHAPE_BLOCKS:
        return two_blocks(names, rng.randint(0, len(names)), shape)
    return tuple(
        ((Quantifier.EXISTS if rng.random() < 0.5 else Quantifier.FORALL), name)
        for name in names
    )


def random_matrix(rng: random.Random, names: Sequence[str], depth: int) -> Formula:
    """A random formula over ``names``, nested about ``depth`` connectives deep."""
    if depth == 0 or rng.random() < 0.22:
        if not names or rng.random() < 0.12:
            return Const(rng.random() < 0.5)
        return Var(rng.choice(list(names)))
    # Occasionally splice in a tautology or contradiction fragment so deep
    # universal prefixes are not almost always invalid.
    if names and rng.random() < 0.15:
        v = Var(rng.choice(list(names)))
        fragment = Or(v, Not(v)) if rng.random() < 0.5 else And(v, Not(v))
        other = random_matrix(rng, names, depth - 1)
        conn = rng.choice(CONNECTIVES)
        return conn(fragment, other) if rng.random() < 0.5 else conn(other, fragment)
    if rng.random() < 0.25:
        return Not(random_matrix(rng, names, depth - 1))
    conn = rng.choice(CONNECTIVES)
    return conn(random_matrix(rng, names, depth - 1), random_matrix(rng, names, depth - 1))


@dataclass(frozen=True, slots=True)
class Qbf:
    """A closed QBF: ordered prefix (outermost first) plus a matrix."""

    prefix: Prefix
    matrix: Formula

    def __post_init__(self):
        names = [v for _, v in self.prefix]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ContractError(f"duplicate prefix variable: {', '.join(dupes)}")
        free = variables(self.matrix) - set(names)
        if free:
            raise ContractError(f"free matrix variable: {', '.join(sorted(free))}")

    @classmethod
    def _trusted(cls, prefix: Prefix, matrix: Formula) -> Qbf:
        """A ``Qbf`` built without ``__post_init__``'s walk over the matrix.
        Only for a caller that has itself made sure that the prefix names
        are distinct and cover every matrix variable, as
        ``parsing.parse_qbf`` does from its leaf table."""
        q = object.__new__(cls)
        object.__setattr__(q, "prefix", prefix)
        object.__setattr__(q, "matrix", matrix)
        return q


def qbf_valid(q: Qbf) -> bool:
    """Decide validity by recursion on the outermost variable, evaluating
    the matrix under each full assignment the recursion reaches.

    One ``read`` set, shared by the whole walk, collects every name a leaf
    evaluation reads. Each level discards its variable before its true
    branch; if that branch does not decide and no evaluation in it read the
    variable, the false branch would repeat the same evaluations with the
    same results, so its result is returned without trying false.
    """
    check_cap(len(q.prefix), "prefix variables", "QBF_VAR_CAP", QBF_VAR_CAP)
    return _valid_rec(q.prefix, 0, q.matrix, {}, set())


def _valid_rec(
    prefix: Prefix, depth: int, matrix: Formula, assignment: dict[str, bool], read: set[str]
) -> bool:
    if depth == len(prefix):
        return evaluate_reading(matrix, assignment, read)
    quant, name = prefix[depth]
    deciding = quant is Quantifier.EXISTS
    read.discard(name)
    assignment[name] = True
    result = _valid_rec(prefix, depth + 1, matrix, assignment, read)
    if result == deciding or name not in read:
        return result
    assignment[name] = False
    return _valid_rec(prefix, depth + 1, matrix, assignment, read)


def qbf_valid_by_table(q: Qbf) -> bool:
    """Decide validity by tabulating the matrix and folding the table.

    Prefix variable ``i`` (outermost first) takes bit ``i`` of the row
    index, so each quantifier, innermost first, combines the table's low
    and high halves: ``|`` for exists, ``&`` for forall.
    """
    check_cap(len(q.prefix), "prefix variables", "QBF_VAR_CAP", QBF_VAR_CAP)
    n = len(q.prefix)
    table = truth_table(q.matrix, {name: i for i, (_, name) in enumerate(q.prefix)}, n)
    for i in range(n - 1, -1, -1):
        half = 1 << i
        low, high = table & ((1 << half) - 1), table >> half
        table = low | high if q.prefix[i][0] is Quantifier.EXISTS else low & high
    return bool(table)


def split_prefix(q: Qbf, shape: str) -> tuple[Prefix, Prefix]:
    """The outer and inner block of ``q``'s prefix under ``shape``; shape
    ``"any"`` takes the whole prefix as the outer block."""
    if shape == "any":
        return q.prefix, ()
    outer, inner = SHAPE_BLOCKS[shape]
    cut = next((i for i, (quant, _) in enumerate(q.prefix) if quant is inner), len(q.prefix))
    if any(quant is outer for quant, _ in q.prefix[cut:]):
        raise UnsupportedShapeError(
            f"prefix is not {outer.value}*-{inner.value}*:"
            f" {_ADJECTIVE[outer]} after {_ADJECTIVE[inner]}"
        )
    return q.prefix[:cut], q.prefix[cut:]


Instance = TypeVar("Instance")


def raise_prefix(
    instance: Instance,
    prefix: Sequence[tuple[Quantifier, str]],
    raises: Mapping[Quantifier, Callable[[Instance, str, int], Instance]],
) -> Instance:
    """Raise ``instance`` over ``prefix``, innermost variable first, with
    ``raises[quantifier]``; the ``k``-th raise gets index ``k``."""
    for index, (quant, name) in enumerate(reversed(prefix), start=1):
        instance = raises[quant](instance, name, index)
    return instance
