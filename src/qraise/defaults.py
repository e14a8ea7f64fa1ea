"""Default theories, extension enumeration, and the universal-raise merge.

A default ``alpha : beta / gamma`` concludes ``gamma`` once ``alpha`` is
derivable, provided ``beta`` stays consistent with the final belief set.
A generating set is an extension's when (a) its belief set is consistent,
(b) every chosen justification is compatible with the final consequence
table ``c``, (c) no other default is applicable against ``c`` with a
justification compatible with it and (d) the chosen defaults alone, applied
from the background until nothing changes, reach all of it (Reiter 1980).

Extensions are found by a depth-first search that branches only on defaults
that can fire. A node holds the undecided, chosen and excluded defaults and
the chosen ones' table ``c``. It picks the lowest-index undecided default
that is applicable against ``c`` and whose justification meets ``c``, and
branches on excluding it, then on including it. As ``c`` only shrinks, an
include is dropped once ``c`` contradicts a chosen justification: that is
(b), and (a) follows from it. A node with no such default is a leaf, and an
extension iff no excluded default's justification still meets ``c``: an
excluded default was applicable when excluded and stays so, and no
undecided one can fire, so that is (c). Every default is chosen only once
applicable, so (d) holds by construction. Each extension is reached once:
along its path the next member of its generating set in grounded order
stays applicable, so a member never chosen would fail the leaf test, and
two leaves differ on some picked default. On a k-universal reduction the
search visits a few nodes per extension where deciding every default in or
out reached 2·3^k leaves. ``verify_extension`` checks one generating set
by (b) and ``_accepts``, which tests (a), (c) and (d).

The tables leave out every private variable: one that occurs in a single
formula object, used only as a background formula, a justification or a
consequence (see ``_TheoryTables``). That formula's table is its
projection by bucket elimination onto the kept variables
(``Universe.project``). ``ENTAILMENT_VAR_CAP`` therefore bounds
the remaining variables and each projected formula's buckets, not the whole
theory. A reduced theory's matrix variables occur only in the base
default's body, so they never widen the tables.

``base_reduction`` encodes satisfiability of a matrix as skeptical
entailment of a fresh query from a single-default theory.
``raise_universal`` merges the two theories obtained by fixing ``x``: two
choice defaults pick a branch, and every old default is guarded by a fresh
variable ``p`` so it fires only after the choice. The merged theory's
extensions are the branch extensions with ``x, p`` (or ``!x, p``) added, so
skeptical entailment becomes the conjunction of the branch answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import ContractError, ParseError, check_cap
from .formulas import (
    And,
    Formula,
    Not,
    TRUE,
    Var,
    size,
    substitute,
    truth_table,
    universe,
    variables,
)
from .parsing import instance_lines, parse_formula, parse_one_name, serialize_formula
from .qbf import Qbf, Quantifier, raise_prefix, random_matrix, split_prefix

# Target interface (see harness.TARGETS): name, fixture suffix, prefix shape.
NAME, SUFFIX, SHAPE = "default", "dlt", "ae"

QUERY_VAR = "a"

# Cap on |D| for extension enumeration (up to 2^|D| search leaves).
DEFAULT_COUNT_CAP = 12


@dataclass(frozen=True, slots=True)
class Default:
    prerequisite: Formula
    justification: Formula
    consequence: Formula


@dataclass(frozen=True, slots=True)
class DefaultTheory:
    defaults: tuple[Default, ...]
    background: frozenset[Formula] = frozenset()

    def all_variables(self) -> frozenset[str]:
        names: set[str] = set()
        for d in self.defaults:
            names |= variables(d.prerequisite) | variables(d.justification)
            names |= variables(d.consequence)
        for f in self.background:
            names |= variables(f)
        return frozenset(names)


@dataclass(frozen=True, slots=True)
class SkepticalResult:
    holds: bool  # vacuously true when extension_count is 0
    extension_count: int


class _TheoryTables:
    """Per-theory truth tables shared by all candidate generating sets.

    A variable is private when it occurs in one formula object only, and
    that object is used only positively: as a background formula, a
    justification or a consequence. A variable of a prerequisite or of
    ``extra`` (the goal) is never private. The universe holds the other
    variables, and each formula with private variables is tabulated with
    them projected out by the universe's ``project``.

    This is sound because every test on these tables (``_accepts``, the
    tests in ``_extensions``, ``skeptically_entails``) asks whether some
    positive tables, with at most one negated prerequisite or goal, have a
    common satisfying assignment. A private variable ``v`` occurs in one
    conjunct ``F`` only (``F`` may repeat, and ``F & F = F``), and if ``v``
    does not occur in ``G`` then ``exists v (F & G) = (exists v F) & G``.

    Formulas are told apart by identity: two equal but separate objects
    share their variables, so neither can project them out. Tables are
    memoized by ``id`` too, so a default whose justification is its
    consequence is tabulated once. Equality would hash whole trees.
    """

    def __init__(self, theory: DefaultTheory, extra: Iterable[Formula] = ()):
        extra = list(extra)
        self._held = theory, extra  # so that no id in ``_tables`` is reused
        negative = [d.prerequisite for d in theory.defaults] + extra
        positive = [*theory.background]
        for d in theory.defaults:
            positive += (d.justification, d.consequence)
        found: dict[int, tuple[Formula, frozenset[str]]] = {}  # by id: formula, variables
        kept: set[str] = set()  # variables of a negative formula or of two objects
        for f in negative:
            if id(f) not in found:
                names = variables(f)
                found[id(f)] = f, names
                kept |= names
        seen = set(kept)
        for f in positive:
            if id(f) not in found:
                names = variables(f)
                found[id(f)] = f, names
                kept |= seen & names
                seen |= names
        u = self.universe = universe(sorted(kept))
        self._tables = {
            key: truth_table(f, u.order, u.width) if names <= kept else u.project([(names, f)])
            for key, (f, names) in found.items()
        }
        tables = self._tables
        self.background = u.full
        for f in theory.background:
            self.background &= tables[id(f)]
        # ``t & not_pre[i] == 0``: table ``t`` entails default i's prerequisite.
        self.not_pre = [u.full ^ tables[id(d.prerequisite)] for d in theory.defaults]
        self.just = [tables[id(d.justification)] for d in theory.defaults]
        self.cons = [tables[id(d.consequence)] for d in theory.defaults]

    def table(self, f: Formula) -> int:
        """The table of ``f``, which must be a formula object of the theory or ``extra``."""
        return self._tables[id(f)]


def _accepts(tables: _TheoryTables, mask: int, consequence: int) -> bool:
    """Is the candidate ``mask``, whose consequence table is ``consequence``,
    an extension? Tests (a), (c) and (d); ``verify_extension``, the only
    caller, has tested (b). ``_extensions`` needs none of these tests: its
    search meets all four by construction and at its leaves."""
    count = len(tables.cons)
    # (a) Only an inconsistent background, with no default chosen, is an inconsistent extension.
    if mask and not consequence:
        return False
    for i in range(count):
        if mask >> i & 1:
            continue
        if consequence & tables.just[i] and consequence & tables.not_pre[i] == 0:  # (c)
            return False
    # (d) Generating sets, not consequences, are compared: defaults may share one.
    reached, current, grew = 0, tables.background, True
    while grew:
        grew = False
        for i in range(count):
            if (mask & ~reached) >> i & 1 and current & tables.not_pre[i] == 0:
                reached |= 1 << i
                current &= tables.cons[i]
                grew = True
    return reached == mask


def verify_extension(theory: DefaultTheory, generating: Iterable[int]) -> bool:
    """Does this generating subset describe an extension?"""
    chosen = frozenset(generating)
    for i in chosen:
        if not 0 <= i < len(theory.defaults):
            raise ContractError(f"default index out of range: {i}")
    tables = _TheoryTables(theory)
    consequence = tables.background
    for i in chosen:
        consequence &= tables.cons[i]
    if any(not consequence & tables.just[i] for i in chosen):  # (b)
        return False
    return _accepts(tables, sum(1 << i for i in chosen), consequence)


def _enumeration_tables(theory: DefaultTheory, extra: Iterable[Formula] = ()) -> _TheoryTables:
    """Tables for enumerating ``theory``, built after the count cap check."""
    check_cap(len(theory.defaults), "defaults", "DEFAULT_COUNT_CAP", DEFAULT_COUNT_CAP)
    return _TheoryTables(theory, extra)


def _extensions(tables: _TheoryTables) -> Iterator[tuple[int, int]]:
    """Every extension as (generating-set bitmask, consequence table), each
    once, in no fixed order."""
    not_pre, just, cons = tables.not_pre, tables.just, tables.cons
    # Entries are (undecided, chosen and excluded masks, table, the chosen
    # defaults' justification tables, the lowest index that may fire). Only an
    # include shrinks the table, so an exclude child skips the undecided
    # defaults its parent already found unable to fire. A self-calling closure
    # would form a reference cycle that keeps every table alive until a
    # collection.
    stack = [((1 << len(cons)) - 1, 0, 0, tables.background, (), 0)]
    while stack:
        undecided, mask, excluded, consequence, justifications, start = stack.pop()
        rest = undecided >> start << start
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            if consequence & not_pre[i] == 0 and consequence & just[i]:
                break
            rest ^= low
        else:
            # A leaf: no undecided default can fire. An excluded one stays
            # applicable, as the table only shrinks, so (c) asks only whether
            # its justification still meets the table.
            while excluded:
                low = excluded & -excluded
                if consequence & just[low.bit_length() - 1]:
                    break
                excluded ^= low
            else:
                yield mask, consequence
            continue
        # Include (pruned by (b)), then exclude, which pops first.
        undecided ^= low
        narrowed = consequence & cons[i]
        chosen = (just[i],) + justifications
        for table in chosen:
            if not narrowed & table:
                break
        else:
            stack.append((undecided, mask | low, excluded, narrowed, chosen, 0))
        stack.append((undecided, mask, excluded | low, consequence, justifications, i + 1))


def extensions(theory: DefaultTheory) -> tuple[frozenset[int], ...]:
    """The generating set of each extension, ordered by bitmask. The
    extension is everything the background and the generating defaults'
    consequences entail, and is never materialized."""
    return tuple(
        frozenset(i for i in range(len(theory.defaults)) if mask >> i & 1)
        for mask, _ in sorted(_extensions(_enumeration_tables(theory)))
    )


def skeptically_entails(theory: DefaultTheory, goal: Formula) -> SkepticalResult:
    """Does every extension entail ``goal``? Vacuously true without extensions."""
    tables = _enumeration_tables(theory, extra=[goal])
    goal_gap = tables.universe.full ^ tables.table(goal)
    holds, seen = True, 0
    for _, consequence in _extensions(tables):
        seen += 1
        if consequence & goal_gap:
            holds = False
    return SkepticalResult(holds=holds, extension_count=seen)


def solve(instance: tuple[DefaultTheory, str]) -> tuple[bool, str]:
    """Decide a (theory, query) instance; the detail counts the extensions."""
    theory, query = instance
    result = skeptically_entails(theory, Var(query))
    vacuous = "" if result.extension_count else " vacuous"
    return result.holds, f"extensions={result.extension_count}{vacuous}"


def substitute_theory(theory: DefaultTheory, name: str, value: bool) -> DefaultTheory:
    """Fix a variable in every component of every default and the background."""
    return DefaultTheory(
        tuple(
            Default(
                substitute(d.prerequisite, name, value),
                substitute(d.justification, name, value),
                substitute(d.consequence, name, value),
            )
            for d in theory.defaults
        ),
        frozenset(substitute(f, name, value) for f in theory.background),
    )


def _base_theory(matrix: Formula) -> tuple[DefaultTheory, str]:
    """The single-default theory; the caller has checked that the matrix
    does not use ``QUERY_VAR``."""
    body = And(Var(QUERY_VAR), matrix)
    return DefaultTheory((Default(TRUE, body, body),), frozenset()), QUERY_VAR


def base_reduction(matrix: Formula, existential_vars: Sequence[str]) -> tuple[DefaultTheory, str]:
    """Theory skeptically entailing the query iff the matrix is satisfiable."""
    extra = variables(matrix) - set(existential_vars)
    if extra:
        raise ContractError(
            f"matrix variables outside the existential block: {', '.join(sorted(extra))}"
        )
    if QUERY_VAR in existential_vars:
        raise ContractError(f"existential block uses the reserved name {QUERY_VAR!r}")
    return _base_theory(matrix)


def raise_universal(theory: DefaultTheory, name: str, index: int) -> DefaultTheory:
    """Merge the two ``name``-branches of ``theory`` into one theory.

    Only defined for an empty background: the choice defaults must be the
    sole defaults applicable at the start. The fresh guard ``_p<index>`` is
    checked against the whole theory, which this walks; ``reduce_qbf``
    checks the guards once against the QBF's prefix instead.
    """
    if theory.background:
        raise ContractError("universal raise requires an empty background")
    guard = _guard(index)
    if guard in theory.all_variables() or guard == name:
        raise ContractError(f"fresh name {guard!r} already occurs in the theory")
    return _raise_universal(theory, name, index)


def _guard(index: int) -> str:
    """The fresh guard variable of raise ``index``."""
    return f"_p{index}"


def _raise_universal(theory: DefaultTheory, name: str, index: int) -> DefaultTheory:
    """``raise_universal`` without its checks. One guard ``Var`` is shared
    by the two choices and every guarded prerequisite."""
    guard, var = Var(_guard(index)), Var(name)
    pick_true = And(var, guard)
    pick_false = And(Not(var), guard)
    guarded = tuple(
        Default(And(guard, d.prerequisite), d.justification, d.consequence)
        for d in theory.defaults
    )
    return DefaultTheory(
        (Default(TRUE, pick_true, pick_true), Default(TRUE, pick_false, pick_false)) + guarded,
        frozenset(),
    )


def reduce_qbf(q: Qbf) -> tuple[DefaultTheory, str]:
    """Equivalid skeptical-entailment instance for a forall*-exists* QBF.

    The guards are checked once, up front: the theory mentions only prefix
    names (``Qbf`` admits no other matrix variable), ``QUERY_VAR`` and
    earlier guards, and its background stays empty. So no raise can clash
    unless some prefix name is a guard; only then does the fold take the
    checked raises, whose walk of the theory finds whether the guard really
    occurs there yet.
    """
    universal, _ = split_prefix(q, SHAPE)
    names = {name for _, name in q.prefix}
    if QUERY_VAR in names:
        raise ContractError(f"prefix uses the reserved query name {QUERY_VAR!r}")
    guards = {_guard(index) for index in range(1, len(universal) + 1)}
    step = raise_universal if names & guards else _raise_universal
    theory, query = _base_theory(q.matrix)
    return raise_prefix(theory, universal, {Quantifier.FORALL: step}), query


# --- lemma check and growth (see harness.check_lemma, measure_growth) ---------

def sample_merge(
    rng: random.Random, num_vars: int, depth: int
) -> tuple[tuple[DefaultTheory, str], str, Qbf | None]:
    """Draw a theory of one to five defaults over pivot ``x``, query ``q0``
    and up to ``num_vars - 2`` other variables, and test the universal merge
    on ``x``: the raised theory's extensions must be the branch extensions
    with the branch literal and the guard added, and its skeptical answer
    the AND of the branches'. Returns the instance, ``""`` or what broke,
    and no QBF."""
    pivot, query = "x", "q0"
    pool = [pivot, query] + [f"v{i + 1}" for i in range(rng.randint(0, max(0, num_vars - 2)))]
    made = []
    for _ in range(rng.randint(1, 5)):
        prerequisite = TRUE if rng.random() < 0.6 else random_matrix(rng, pool, 1)
        justification = random_matrix(rng, pool, depth)
        made.append(Default(prerequisite, justification, random_matrix(rng, pool, depth)))
    theory = DefaultTheory(tuple(made))
    failure = _merge_failure(theory, pivot, query)
    if failure:
        failure += f" theory={serialize_theory(theory, query)!r}"
    return (theory, query), failure, None


def _merge_failure(theory: DefaultTheory, pivot: str, query: str) -> str:
    """What breaks the universal merge on ``pivot``, or ``""``. The raised
    theory's defaults are the two choices, then the branch defaults shifted
    by 2, so each true-branch generating set ``G`` must appear there as
    ``{0} | (G + 2)`` and each false-branch one as ``{1} | (G + 2)``."""
    raised = raise_universal(theory, pivot, 1)
    branches = [substitute_theory(theory, pivot, value) for value in (True, False)]

    def generating(t: DefaultTheory) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(chosen)) for chosen in extensions(t))

    raised_sets = generating(raised)
    expected_sets = sorted(
        (pick, *(i + 2 for i in chosen))
        for pick, branch in enumerate(branches)
        for chosen in generating(branch)
    )
    if raised_sets != expected_sets:
        return f"generating sets differ: {raised_sets} vs {expected_sets}"
    merged = skeptically_entails(raised, Var(query)).holds
    branch_true, branch_false = (skeptically_entails(b, Var(query)).holds for b in branches)
    if merged != (branch_true and branch_false):
        return f"skeptical merge broke: merged={merged} branches=({branch_true},{branch_false})"
    return ""


def growth(n_raises: int) -> tuple[int, list[tuple[int, ...]], tuple[tuple[str, bool], ...]]:
    """Raise ``n_raises`` times over a one-variable base. Returns the matrix
    size, one row (raises, variables, defaults, total size) per step, and
    the verdicts on the bound: two defaults per raise, quadratic total."""
    matrix = Var("y")
    theory, _ = base_reduction(matrix, ["y"])
    rows = []
    for k in range(n_raises + 1):
        if k:
            theory = raise_universal(theory, f"u{k}", k)
        total = sum(
            size(d.prerequisite) + size(d.justification) + size(d.consequence)
            for d in theory.defaults
        )
        rows.append((k, len(theory.all_variables()), len(theory.defaults), total))
    steps = list(zip(rows, rows[1:]))
    first = [after[3] - before[3] for before, after in steps]
    second = [after - before for before, after in zip(first, first[1:])]
    return size(matrix), rows, (
        ("each raise adds exactly 2 defaults", all(a[2] - b[2] == 2 for b, a in steps)),
        ("total size grows exactly quadratically", len(set(second)) <= 1),
    )


# --- theory text format ------------------------------------------------------

def serialize_theory(theory: DefaultTheory, query: str | None = None) -> str:
    lines = []
    for d in theory.defaults:
        justification = serialize_formula(d.justification)
        if d.consequence is d.justification:  # as in a reduced theory: render it once
            consequence = justification
        else:
            consequence = serialize_formula(d.consequence)
        lines.append(f"{serialize_formula(d.prerequisite)} : {justification} / {consequence}")
    lines.extend(f"W: {text}" for text in sorted(map(serialize_formula, theory.background)))
    if query is not None:
        lines.append(f"query: {query}")
    return "\n".join(lines) + "\n"


def parse_theory(text: str) -> tuple[DefaultTheory, str | None]:
    """Read a theory and its query, if it names one; a second ``query:``
    line is a ``ParseError`` at its keyword."""
    defaults: list[Default] = []
    background: list[Formula] = []
    query: str | None = None
    for keyword, body, line, column in instance_lines(text, ("W:", "query:")):
        if keyword == "W:":
            background.append(parse_formula(body, line, column))
            continue
        if keyword:
            if query is not None:
                raise ParseError(f"second {keyword!r} line", line, column - len(keyword))
            query = parse_one_name(body, line, column)
            continue
        if ":" not in body or "/" not in body:
            raise ParseError("expected 'alpha : beta / gamma', 'W:', or 'query:'", line, column)
        head, _, rest = body.partition(":")
        justification_text, _, consequence_text = rest.partition("/")
        prerequisite = TRUE if not head.strip() else parse_formula(head, line, column)
        at = column + len(head) + 1  # where the justification starts
        justification = parse_formula(justification_text, line, at)
        # One object for both, as in a reduced theory: _TheoryTables projects
        # a variable out only when a single object holds it.
        if consequence_text.strip() == justification_text.strip():
            consequence = justification
        else:
            consequence = parse_formula(consequence_text, line, at + len(justification_text) + 1)
        defaults.append(Default(prerequisite, justification, consequence))
    return DefaultTheory(tuple(defaults), frozenset(background)), query


def serialize(instance: tuple[DefaultTheory, str]) -> str:
    return serialize_theory(*instance)


def parse(text: str) -> tuple[DefaultTheory, str]:
    """``parse_theory`` for a file that must name its query."""
    theory, query = parse_theory(text)
    if query is None:
        raise ParseError("theory file has no 'query:' line", 1, 1)
    return theory, query
