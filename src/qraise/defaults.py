"""Default theories, extension enumeration, and the universal-raise merge.

A default ``alpha : beta / gamma`` concludes ``gamma`` once ``alpha`` is
derivable, provided ``beta`` stays consistent with the final belief set.
Extensions are found by generate-and-verify: a candidate subset of the
defaults is accepted when the staged applicability construction — grow
prerequisites stage by stage, check justifications against the candidate's
full consequence set — reproduces exactly that candidate.

``base_reduction`` encodes satisfiability of a matrix as skeptical
entailment of a fresh query from a single-default theory.
``raise_universal`` merges the two theories obtained by fixing ``x``: two
choice defaults pick a branch, and every old default is guarded by a fresh
variable ``p`` so it fires only after the choice. The merged theory's
extensions are the branch extensions with ``x, p`` (or ``!x, p``) added, so
skeptical entailment becomes the conjunction of the branch answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import ContractError, ParseError, ResourceLimitError, UnsupportedShapeError
from .formulas import (
    And,
    Formula,
    Not,
    TRUE,
    Var,
    substitute,
    truth_table,
    universe,
    variables,
)
from .parsing import parse_formula, serialize_formula
from .qbf import Qbf, Quantifier

# Target interface (see harness.TARGETS): name, fixture suffix, prefix shape.
NAME, SUFFIX, SHAPE = "default", "dlt", "ae"

QUERY_VAR = "a"

# Cap on |D| for extension enumeration (2^|D| candidate generating sets).
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
class ExtensionDescriptor:
    """An extension, identified by its generating defaults.

    ``consequences`` is the background plus the generating consequences; the
    extension itself is everything those formulas entail and is never
    materialized.
    """

    generating: frozenset[int]
    consequences: frozenset[Formula]


@dataclass(frozen=True, slots=True)
class SkepticalResult:
    holds: bool
    vacuous: bool  # no extension existed, so the answer is vacuously true
    extension_count: int

    def __bool__(self) -> bool:
        return self.holds


class _TheoryTables:
    """Per-theory truth tables shared by all candidate generating sets."""

    def __init__(self, theory: DefaultTheory, extra: Iterable[Formula] = ()):
        names = set(theory.all_variables())
        for f in extra:
            names |= variables(f)
        self.universe = universe(sorted(names))
        self.full = self.universe.full
        self.background = self.full
        for f in theory.background:
            self.background &= self.table(f)
        self.pre = [self.table(d.prerequisite) for d in theory.defaults]
        self.just = [self.table(d.justification) for d in theory.defaults]
        self.cons = [self.table(d.consequence) for d in theory.defaults]

    def table(self, f: Formula) -> int:
        return truth_table(f, self.universe.order, self.universe.width)


def _fixpoint(tables: _TheoryTables, candidate_mask: int) -> tuple[int, int]:
    """Run the staged construction against a candidate generating set.

    Returns the generating set the construction actually reaches (as an
    index bitmask) together with the candidate's consequence-set table.
    """
    count = len(tables.cons)
    consequence = tables.background
    for i in range(count):
        if candidate_mask >> i & 1:
            consequence &= tables.cons[i]
    reached = 0
    current = tables.background
    while True:
        added = 0
        for i in range(count):
            if reached >> i & 1:
                continue
            entailed = current & (tables.full ^ tables.pre[i]) == 0
            compatible = consequence & tables.just[i] != 0
            if entailed and compatible:
                added |= 1 << i
        if not added:
            return reached, consequence
        reached |= added
        for i in range(count):
            if added >> i & 1:
                current &= tables.cons[i]


def _consequence_set(theory: DefaultTheory, generating: Iterable[int]) -> frozenset[Formula]:
    return theory.background | {theory.defaults[i].consequence for i in generating}


def _accepts(tables: _TheoryTables, candidate_mask: int) -> int | None:
    """The candidate's consequence table if it generates an extension, else None."""
    reached, consequence_table = _fixpoint(tables, candidate_mask)
    # The construction must apply exactly the candidate defaults. Comparing
    # generating sets (not consequence formulas) keeps descriptors canonical
    # when distinct defaults share a consequence.
    if reached != candidate_mask:
        return None
    # An inconsistent belief set is an extension only when the background
    # itself is inconsistent and no default was selected.
    if consequence_table or (tables.background == 0 and candidate_mask == 0):
        return consequence_table
    return None


def verify_extension(theory: DefaultTheory, generating: Iterable[int]) -> bool:
    """Does this generating subset describe an extension?"""
    chosen = frozenset(generating)
    for i in chosen:
        if not 0 <= i < len(theory.defaults):
            raise ContractError(f"default index out of range: {i}")
    return _accepts(_TheoryTables(theory), sum(1 << i for i in chosen)) is not None


def _enumeration_tables(theory: DefaultTheory, extra: Iterable[Formula] = ()) -> _TheoryTables:
    """Tables for enumerating every generating set of ``theory``; the count
    cap is checked before any table is built."""
    count = len(theory.defaults)
    if count > DEFAULT_COUNT_CAP:
        raise ResourceLimitError(
            f"{count} defaults exceed the enumeration cap of {DEFAULT_COUNT_CAP}"
        )
    return _TheoryTables(theory, extra)


def _extensions(tables: _TheoryTables) -> Iterator[tuple[int, int]]:
    """Every extension as (generating-set bitmask, consequence table)."""
    for mask in range(1 << len(tables.cons)):
        consequence = _accepts(tables, mask)
        if consequence is not None:
            yield mask, consequence


def extensions(theory: DefaultTheory) -> tuple[ExtensionDescriptor, ...]:
    """All extensions, by enumeration of generating subsets."""
    found = []
    for mask, _ in _extensions(_enumeration_tables(theory)):
        generating = frozenset(i for i in range(len(theory.defaults)) if mask >> i & 1)
        found.append(ExtensionDescriptor(generating, _consequence_set(theory, generating)))
    return tuple(found)


def skeptically_entails(theory: DefaultTheory, goal: Formula) -> SkepticalResult:
    """Does every extension entail ``goal``? Vacuously true without extensions."""
    tables = _enumeration_tables(theory, extra=[goal])
    goal_gap = tables.full ^ tables.table(goal)
    holds = True
    seen = 0
    for _, consequence in _extensions(tables):
        seen += 1
        if consequence & goal_gap:
            holds = False
    return SkepticalResult(holds=holds, vacuous=seen == 0, extension_count=seen)


def solve(instance: tuple[DefaultTheory, str]) -> tuple[bool, str]:
    """Decide a (theory, query) instance; the detail counts the extensions."""
    theory, query = instance
    result = skeptically_entails(theory, Var(query))
    vacuous = " vacuous" if result.vacuous else ""
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
    if QUERY_VAR in variables(matrix):
        raise ContractError(f"matrix uses the reserved query name {QUERY_VAR!r}")
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
    sole defaults applicable at the start.
    """
    if theory.background:
        raise ContractError("universal raise requires an empty background")
    guard = f"_p{index}"
    if guard in theory.all_variables() or guard == name:
        raise ContractError(f"fresh name {guard!r} already occurs in the theory")
    pick_true = And(Var(name), Var(guard))
    pick_false = And(Not(Var(name)), Var(guard))
    guarded = tuple(
        Default(And(Var(guard), d.prerequisite), d.justification, d.consequence)
        for d in theory.defaults
    )
    return DefaultTheory(
        (Default(TRUE, pick_true, pick_true), Default(TRUE, pick_false, pick_false)) + guarded,
        frozenset(),
    )


def split_prefix_ae(q: Qbf) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split a forall*-exists* prefix; reject any other interleaving."""
    universal: list[str] = []
    existential: list[str] = []
    for quant, name in q.prefix:
        if quant is Quantifier.FORALL:
            if existential:
                raise UnsupportedShapeError(
                    "prefix is not forall*-exists*: universal after existential"
                )
            universal.append(name)
        else:
            existential.append(name)
    return tuple(universal), tuple(existential)


def reduce_qbf(q: Qbf) -> tuple[DefaultTheory, str]:
    """Equivalid skeptical-entailment instance for a forall*-exists* QBF."""
    universal, _ = split_prefix_ae(q)
    if QUERY_VAR in (name for _, name in q.prefix):
        raise ContractError(f"prefix uses the reserved query name {QUERY_VAR!r}")
    theory, query = _base_theory(q.matrix)
    for index, name in enumerate(reversed(universal), start=1):
        theory = raise_universal(theory, name, index)
    return theory, query


# --- theory text format ------------------------------------------------------

def serialize_theory(theory: DefaultTheory, query: str | None = None) -> str:
    lines = []
    for d in theory.defaults:
        lines.append(
            f"{serialize_formula(d.prerequisite)} : {serialize_formula(d.justification)}"
            f" / {serialize_formula(d.consequence)}"
        )
    lines.extend(f"W: {serialize_formula(f)}" for f in sorted(theory.background, key=serialize_formula))
    if query is not None:
        lines.append(f"query: {query}")
    return "\n".join(lines) + "\n"


def parse_theory(text: str) -> tuple[DefaultTheory, str | None]:
    defaults: list[Default] = []
    background: list[Formula] = []
    query: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("W:"):
            background.append(parse_formula(line[2:]))
            continue
        if line.startswith("query:"):
            query = line[len("query:"):].strip()
            continue
        if ":" not in line or "/" not in line:
            raise ParseError("expected 'alpha : beta / gamma', 'W:', or 'query:'", lineno, 1)
        head, _, rest = line.partition(":")
        justification_text, _, consequence_text = rest.partition("/")
        prerequisite = TRUE if not head.strip() else parse_formula(head)
        defaults.append(
            Default(prerequisite, parse_formula(justification_text), parse_formula(consequence_text))
        )
    return DefaultTheory(tuple(defaults), frozenset(background)), query


def serialize(instance: tuple[DefaultTheory, str]) -> str:
    return serialize_theory(*instance)


def parse(text: str) -> tuple[DefaultTheory, str]:
    """``parse_theory`` for a file that must name its query."""
    theory, query = parse_theory(text)
    if query is None:
        raise ContractError("theory file has no 'query:' line")
    return theory, query
