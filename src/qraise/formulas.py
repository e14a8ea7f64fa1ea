"""Propositional formulas as immutable ASTs, plus exact semantic checks.

Formulas are plain trees; nothing here simplifies. ``substitute`` leaves
``!true`` and friends in place — downstream constructions copy formulas
into larger structures and count their nodes, so the shape of a
substituted formula must stay predictable.

Each node is a slot dataclass: ``Const``, ``Var`` and ``Not`` hold one
field, and the four connectives share ``_Binary``'s ``left`` and
``right``. ``dataclass`` writes their ``==``, ``hash``, ``repr``,
``__match_args__`` and ``__slots__``, so ``==`` and ``hash`` recurse over
the whole tree. Two things stay hand-written. Each class's ``__init__``
stores straight into its slots, because a parse builds hundreds of nodes
and a frozen dataclass's ``__init__`` goes through ``object.__setattr__``
once per field: 500 ``And(x, x)`` take 123 µs this way against 189 µs
(timeit, best of 9, Python 3.11.7). And the base ``Formula`` refuses
every assignment and pickles, since the nodes are not frozen dataclasses:
on Python 3.11 a frozen slot dataclass raises ``TypeError``, not
``FrozenInstanceError``, for a name that is not a field, and a non-frozen
slot dataclass has no pickling of its own.

``consistent`` and ``entails`` decide by full enumeration of assignments.
Internally the enumeration is vectorized: a formula's truth table over an
ordered variable universe is a single big integer whose bit ``j`` is the
formula's value under the assignment encoded by ``j``. All connectives
then become integer bit operations, which keeps exhaustive checks over
~20 variables affordable. ``truth_table`` builds the all-ones table once
per call and hands it down its recursion, so a negation, implication or
equivalence node reuses it instead of allocating a ``2**width``-bit
integer of its own.

The two walks that run per leaf of the recursive QBF oracle, per plan
replay step and per table, ``evaluate_reading`` and ``truth_table``, are
one method per node class: ``_read`` and ``_tabulate``. A node then costs
one method call, where an if-chain over the seven classes cost up to seven
class tests and a call of the module function. Measured on random
matrices (Python 3.11.7), an evaluation is 1.5x faster and a table of up
to 8 variables 1.2-1.3x; at 16 variables and up the big-integer operations
dominate a table. Both recurse, so deep input overflows them. A non-node
in the tree has no such method: the entry point catches the
``AttributeError`` and ``check_formula`` finds the stray and raises its
``TypeError``, so only that error path pays for the search.
``variables``, ``size`` and ``parsing.serialize_formula`` stay
explicit-stack loops, which take any depth; ``substitute`` still
recurses. These dispatch on the seven node classes and hand any other
class, a ``Formula`` subclass such as ``_Binary`` included, to
``check_formula``. So every walk rejects a non-node with the same
``TypeError``, naming the first stray in pre-order.

A ``Universe`` lays tables out and gives the ones its callers share:
``var`` for one variable, and ``project``, which keeps tables small when
only some variables matter. By bucket elimination it existentially
projects out every variable outside the universe, so the widest table
spans one variable's bucket or the kept set, not the whole variable set.
``consistent`` keeps the whole table on purpose, and ``entails`` asks it
about the premises and the negated goal: they are the independent
full-table checks.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from typing import Collection, Iterable, Mapping, Sequence

from .errors import ContractError, EvaluationError, check_cap

# Hard cap on every assignment universe: the whole one of consistent() and
# entails(), each bucket of Universe.project() and each kept set. Exceeding it
# raises ResourceLimitError rather than silently sampling.
ENTAILMENT_VAR_CAP = 22

NAME = r"[A-Za-z_][A-Za-z0-9_+^-]*"
NAME_RE = re.compile(NAME + r"\Z")


def check_name(name: str) -> str:
    """Validate a variable name, returning it unchanged."""
    if not NAME_RE.match(name):
        raise ContractError(f"invalid variable name: {name!r}")
    return name


class Formula:
    """Base class for AST nodes, immutable and hashable. The nodes are
    non-frozen slot dataclasses with their own ``__init__``, so this class
    refuses every assignment and pickles the fields in ``__match_args__``,
    which such a dataclass does not do itself."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)


# Writes ``==``, ``hash``, ``repr``, ``__match_args__`` and ``__slots__``;
# each class keeps its own ``__init__``.
_node = dataclass(slots=True, init=False, unsafe_hash=True)


@_node
class Const(Formula):
    value: bool

    def __init__(self, value: bool):
        _set_value(self, value)

    def _read(self, assignment, read):
        return self.value

    def _tabulate(self, order, width, full):
        return full if self.value else 0


@_node
class Var(Formula):
    name: str

    def __init__(self, name: str):
        _set_name(self, check_name(name))

    def _read(self, assignment, read):
        name = self.name
        read.add(name)
        try:
            return assignment[name]
        except KeyError:
            raise EvaluationError(f"unbound variable: {name}") from None

    def _tabulate(self, order, width, full):
        try:
            return _wave(order[self.name], width)
        except KeyError:
            raise EvaluationError(f"unbound variable: {self.name}") from None


@_node
class Not(Formula):
    operand: Formula

    def __init__(self, operand: Formula):
        _set_operand(self, operand)

    def _read(self, assignment, read):
        return not self.operand._read(assignment, read)

    def _tabulate(self, order, width, full):
        return full ^ self.operand._tabulate(order, width, full)


@_node
class _Binary(Formula):
    """The fields shared by the four connectives."""

    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula):
        _set_left(self, left)
        _set_right(self, right)


class And(_Binary):
    __slots__ = ()

    def _read(self, assignment, read):
        return self.left._read(assignment, read) and self.right._read(assignment, read)

    def _tabulate(self, order, width, full):
        return self.left._tabulate(order, width, full) & self.right._tabulate(order, width, full)


class Or(_Binary):
    __slots__ = ()

    def _read(self, assignment, read):
        return self.left._read(assignment, read) or self.right._read(assignment, read)

    def _tabulate(self, order, width, full):
        return self.left._tabulate(order, width, full) | self.right._tabulate(order, width, full)


class Implies(_Binary):
    __slots__ = ()

    def _read(self, assignment, read):
        return not self.left._read(assignment, read) or self.right._read(assignment, read)

    def _tabulate(self, order, width, full):
        return (full ^ self.left._tabulate(order, width, full)) | self.right._tabulate(order, width, full)


class Iff(_Binary):
    __slots__ = ()

    def _read(self, assignment, read):
        return self.left._read(assignment, read) == self.right._read(assignment, read)

    def _tabulate(self, order, width, full):
        return full ^ self.left._tabulate(order, width, full) ^ self.right._tabulate(order, width, full)


# Each ``__init__`` stores through its slot's own descriptor, since
# ``Formula.__setattr__`` refuses every assignment. Taken from the decorated
# classes: ``slots=True`` returns a new class.
_set_value = Const.value.__set__
_set_name = Var.name.__set__
_set_operand = Not.operand.__set__
_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__

TRUE = Const(True)
FALSE = Const(False)


# The node classes; anything else in a tree is a stray that the walks reject.
_CONNECTIVES = frozenset({And, Or, Implies, Iff})
_NODES = _CONNECTIVES | {Const, Var, Not}


def check_formula(f: object) -> None:
    """Raise ``TypeError("not a formula node: …")`` for the first object in
    ``f``, in pre-order from the left, whose class is none of the seven
    node classes; return if there is none. Every walk calls it only once it
    has met a stray, so a well-formed formula pays nothing for it."""
    stack = [f]
    while stack:
        node = stack.pop()
        cls = node.__class__
        if cls not in _NODES:
            raise TypeError(f"not a formula node: {node!r}") from None
        if cls is Not:
            stack.append(node.operand)
        elif cls is not Var and cls is not Const:
            stack.append(node.right)
            stack.append(node.left)


def variables(f: Formula) -> frozenset[str]:
    """The set of variable names occurring in ``f``."""
    out: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        cls = node.__class__
        if cls is Var:
            out.add(node.name)
        elif cls is Not:
            stack.append(node.operand)
        elif cls in _CONNECTIVES:
            stack.append(node.left)
            stack.append(node.right)
        elif cls is not Const:
            check_formula(f)
    return frozenset(out)


def size(f: Formula) -> int:
    """Number of AST nodes in ``f``."""
    total = 0
    stack = [f]
    while stack:
        node = stack.pop()
        total += 1
        cls = node.__class__
        if cls is Not:
            stack.append(node.operand)
        elif cls in _CONNECTIVES:
            stack.append(node.left)
            stack.append(node.right)
        elif cls is not Var and cls is not Const:
            check_formula(f)
    return total


def substitute(f: Formula, name: str, value: bool) -> Formula:
    """Replace every occurrence of variable ``name`` with the constant ``value``.

    Purely syntactic: no simplification is performed. Untouched subtrees are
    shared with the input.
    """
    return _substitute(f, name, TRUE if value else FALSE)


def _substitute(f: Formula, name: str, const: Const) -> Formula:
    """``substitute`` with the constant node given."""
    cls = f.__class__
    if cls is Var:
        return const if f.name == name else f
    if cls is Const:
        return f
    if cls is Not:
        child = _substitute(f.operand, name, const)
        return f if child is f.operand else Not(child)
    if cls not in _CONNECTIVES:
        # The walk goes in pre-order from the left, so this is the stray
        # that check_formula would name on the whole formula.
        check_formula(f)
    left = _substitute(f.left, name, const)  # type: ignore[attr-defined]
    right = _substitute(f.right, name, const)  # type: ignore[attr-defined]
    if left is f.left and right is f.right:  # type: ignore[attr-defined]
        return f
    return cls(left, right)  # type: ignore[call-arg]


def evaluate(f: Formula, assignment: Mapping[str, bool]) -> bool:
    """Truth value of ``f`` under a (total enough) assignment."""
    return evaluate_reading(f, assignment, set())


def evaluate_reading(f: Formula, assignment: Mapping[str, bool], read: set[str]) -> bool:
    """``evaluate`` that also adds each name it reads to ``read``;
    short-circuited operands are not read."""
    try:
        return f._read(assignment, read)
    except AttributeError:
        check_formula(f)
        raise


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


def _insert(table: int, positions: Sequence[int], width: int) -> int:
    """Lift a table over ``width - len(positions)`` variables into ``width``
    variables by inserting, at each bit position in ``positions`` (ascending,
    in the wider layout), a variable the table does not depend on.

    Each old index bit moves up to its new position in one step, from the
    highest down, so the positions it skips are already clear; then the
    copy with an inserted bit clear is duplicated into that bit set."""
    if not positions:
        return table
    low = positions[0]  # the bits below it stay put
    targets = [k for k in range(low, width) if k not in positions]
    for old in range(low + len(targets) - 1, low - 1, -1):
        high = table & _wave(old, width)
        table = table ^ high | high << ((1 << targets[old - low]) - (1 << old))
    for position in positions:
        table |= table << (1 << position)
    return table


def _remove(table: int, positions: Sequence[int], width: int) -> int:
    """Existentially project the variables at bit ``positions`` (ascending)
    out of a ``width``-variable table: OR the two halves of each together,
    then close the gaps with the inverse of ``_insert``'s moves, from the
    lowest bit up."""
    if not positions:
        return table
    for position in positions:
        table = (table | table >> (1 << position)) & ~_wave(position, width)
    new = positions[0]  # the bits below it stay put
    for old in range(new + 1, width):
        if old not in positions:
            high = table & _wave(old, width)
            table = table ^ high | high >> ((1 << old) - (1 << new))
            new += 1
    return table


def truth_table(f: Formula, order: Mapping[str, int], width: int) -> int:
    """Truth table of ``f`` as a ``2**width``-bit integer.

    ``order`` maps each variable of ``f`` to its bit position in the
    assignment index. The all-ones table is built once per call and handed
    down, so each node does only its own bit operation.
    """
    try:
        return f._tabulate(order, width, (1 << (1 << width)) - 1)
    except AttributeError:
        check_formula(f)
        raise


@dataclass(frozen=True, slots=True)
class Universe:
    """Truth-table bit layout: each variable's bit position in the assignment
    index, the variable count, and the all-true table. It also gives the
    tables its callers build on it: one variable's (``var``) and a
    projection (``project``).

    The waves behind ``var`` and ``truth_table`` stay in ``_wave``'s
    process-wide cache, not in each universe: building every wave of one
    universe fresh takes 86 µs at width 16, 293 µs at 18 and 12.3 ms at 22
    (nproc=2, Python 3.11.7), against 151 µs for a whole table-oracle call
    on a 16-variable QBF with cached waves, so a cache per universe would
    add about half to such a call."""

    order: Mapping[str, int]
    width: int
    full: int

    def var(self, name: str) -> int:
        """The table of the variable ``name``, which must be in ``order``."""
        return _wave(self.order[name], self.width)

    def project(self, factors: Iterable[_Factor]) -> int:
        """Truth table, over this universe, of the conjunction of the
        formulas in ``factors``, each given with the names of its variables
        as ``(names, formula)``, with every variable outside ``order``
        existentially projected out. ``order`` must be sorted.

        Bucket elimination (Davis-Putnam; Dechter's "bucket elimination")
        over factors, each a formula or a table over its own sorted
        variables. While a variable outside ``order`` is left, the one whose
        bucket (the factors that mention it) spans the fewest variables, ties
        broken by name, is eliminated: its bucket is conjoined in the
        universe of that span and the variable is projected out, leaving one
        new factor. When the bucket is a single factor, every hidden
        variable that only this factor mentions is projected out of it in
        the same universe. The rest is conjoined in this universe. Each
        bucket's universe is held to ``ENTAILMENT_VAR_CAP``; the whole
        variable set is not.

        The factors are split once into those that mention a hidden
        variable and those that do not, and each elimination scans only
        the first group; a new factor whose variables are all kept joins
        the second.
        """
        order = self.order
        plain: list[_Factor] = []
        hiding: list[_Factor] = []
        for factor in factors:
            (hiding if any(name not in order for name in factor[0]) else plain).append(factor)
        while hiding:
            spans: defaultdict[str, set[str]] = defaultdict(set)
            for names, _ in hiding:
                for name in names:
                    if name not in order:
                        spans[name].update(names)
            hidden = min(spans, key=lambda name: (len(spans[name]), name))
            u = universe(sorted(spans[hidden]), what="variables in one elimination bucket")
            bucket = [factor for factor in hiding if hidden in factor[0]]
            hiding = [factor for factor in hiding if hidden not in factor[0]]
            gone = [hidden]
            if len(bucket) == 1:
                # Every hidden variable that no other factor mentions has this
                # same bucket, so all of them go in this one universe.
                gone = [
                    name for name in u.order
                    if name in spans and all(name not in names for names, _ in hiding)
                ]
            table = _remove(u._conjoin(bucket), [u.order[name] for name in gone], u.width)
            left = tuple(name for name in u.order if name not in gone)
            (hiding if any(name not in order for name in left) else plain).append((left, table))
        return self._conjoin(plain)

    def _conjoin(self, factors: list[_Factor]) -> int:
        """Conjunction of ``factors`` in this universe, whose order must be
        sorted and cover every factor's variables: formulas are tabulated,
        tables lifted."""
        result = self.full
        for names, factor in factors:
            if isinstance(factor, Formula):
                result &= truth_table(factor, self.order, self.width)
                continue
            missing = [position for name, position in self.order.items() if name not in names]
            result &= _insert(factor, missing, self.width)
        return result


# A factor of ``Universe.project``: the names of its variables, and a formula
# or a table laid out over them in sorted order.
_Factor = tuple[Collection[str], Formula | int]


def universe(names: Iterable[str], what: str = "variables") -> Universe:
    """Lay ``names`` out in the order given, since the order decides which
    names take the low bits; callers sort for a canonical layout. More than
    ``ENTAILMENT_VAR_CAP`` names are a ``ResourceLimitError`` (``errors.check_cap``)."""
    order = {name: i for i, name in enumerate(dict.fromkeys(names))}
    check_cap(len(order), what, "ENTAILMENT_VAR_CAP", ENTAILMENT_VAR_CAP)
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
    return not consistent([*formulas, Not(goal)])
