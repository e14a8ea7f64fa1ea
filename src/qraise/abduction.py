"""Propositional abduction: explanation existence and its QBF encoding.

An instance is a triple of hypothesis variables H, manifestation variables
M, and a theory T of formulas. An explanation is a subset S of H such that
S together with T is consistent and entails every manifestation.

``base_reduction`` encodes "for all Y, matrix" as explanation existence of
``<{}, {a}, {!matrix | a}>``. ``raise_existential`` then merges the two
instances obtained by fixing a variable ``x`` to true and false into one
instance whose explanations are exactly the branch explanations tagged with
``x+`` or ``x-``. Folding the merge over a leading existential block turns
any exists*-forall* QBF into an equivalid instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ContractError, ParseError, ResourceLimitError, UnsupportedShapeError
from .formulas import (
    Formula,
    Implies,
    Not,
    Or,
    Var,
    conjunction,
    consistent,
    entails,
    substitute,
    truth_table,
    universe,
    variables,
)
from .parsing import parse_formula, serialize_formula
from .qbf import Qbf, Quantifier

# Target interface (see harness.TARGETS): name, fixture suffix, prefix shape.
NAME, SUFFIX, SHAPE = "abduction", "abd", "ea"

# Every base reduction manifests this single reserved variable.
GOAL_VAR = "a"

# Cap on |H| for explanation enumeration (2^|H| candidate subsets).
HYPOTHESIS_CAP = 14

Explanation = frozenset[str]


@dataclass(frozen=True, slots=True)
class AbductionInstance:
    hypotheses: frozenset[str]
    manifestations: frozenset[str]
    theory: frozenset[Formula]

    def __post_init__(self):
        overlap = self.hypotheses & self.manifestations
        if overlap:
            raise ContractError(
                f"hypotheses and manifestations overlap: {', '.join(sorted(overlap))}"
            )

    def all_variables(self) -> frozenset[str]:
        names = set(self.hypotheses) | set(self.manifestations)
        for f in self.theory:
            names |= variables(f)
        return frozenset(names)


def is_explanation(instance: AbductionInstance, subset: Iterable[str]) -> bool:
    """Check one candidate subset of the hypotheses."""
    chosen = frozenset(subset)
    stray = chosen - instance.hypotheses
    if stray:
        raise ContractError(f"not hypotheses of this instance: {', '.join(sorted(stray))}")
    picked = [Var(name) for name in sorted(chosen)]
    goal = conjunction(Var(name) for name in sorted(instance.manifestations))
    theory = list(instance.theory)
    return consistent(picked + theory) and entails(picked + theory, goal)


def _explanations(instance: AbductionInstance, first_only: bool) -> list[Explanation]:
    if len(instance.hypotheses) > HYPOTHESIS_CAP:
        raise ResourceLimitError(
            f"{len(instance.hypotheses)} hypotheses exceed the enumeration cap of"
            f" {HYPOTHESIS_CAP}"
        )
    # Consistency and entailment are universe-independent as long as the
    # universe covers every variable involved, so one table set over the
    # whole instance serves all 2^|H| candidate subsets.
    u = universe(sorted(instance.all_variables()))
    theory_mask = u.full
    for f in instance.theory:
        theory_mask &= truth_table(f, u.order, u.width)
    goal_mask = u.full
    for name in sorted(instance.manifestations):
        goal_mask &= truth_table(Var(name), u.order, u.width)
    hyp_masks = [
        (name, truth_table(Var(name), u.order, u.width)) for name in sorted(instance.hypotheses)
    ]
    not_goal = u.full ^ goal_mask
    found: list[Explanation] = []
    for bits in range(1 << len(hyp_masks)):
        mask = theory_mask
        for i, (_, var_mask) in enumerate(hyp_masks):
            if bits >> i & 1:
                mask &= var_mask
        if mask and mask & not_goal == 0:
            found.append(frozenset(name for i, (name, _) in enumerate(hyp_masks) if bits >> i & 1))
            if first_only:
                return found
    return found


def enumerate_explanations(instance: AbductionInstance) -> frozenset[Explanation]:
    """All explanations, by exhaustive enumeration of hypothesis subsets."""
    return frozenset(_explanations(instance, first_only=False))


def has_explanation(instance: AbductionInstance) -> bool:
    """Short-circuiting form of ``enumerate_explanations``."""
    return bool(_explanations(instance, first_only=True))


def solve(instance: AbductionInstance) -> tuple[bool, str]:
    """Decide ``instance``; the detail names its lexicographically least explanation."""
    explanations = enumerate_explanations(instance)
    if not explanations:
        return False, ""
    return True, f"explanation={{{', '.join(min(sorted(s) for s in explanations))}}}"


def substitute_theory(instance: AbductionInstance, name: str, value: bool) -> AbductionInstance:
    """Fix a theory variable, leaving hypotheses and manifestations alone."""
    if name in instance.hypotheses or name in instance.manifestations:
        raise ContractError(f"{name} is a hypothesis or manifestation, not a theory variable")
    return AbductionInstance(
        instance.hypotheses,
        instance.manifestations,
        frozenset(substitute(f, name, value) for f in instance.theory),
    )


def base_instance(matrix: Formula) -> AbductionInstance:
    """``<{}, {a}, {!matrix | a}>``, the instance every raise starts from."""
    if GOAL_VAR in variables(matrix):
        raise ContractError(f"matrix uses the reserved manifestation name {GOAL_VAR!r}")
    return AbductionInstance(
        hypotheses=frozenset(),
        manifestations=frozenset({GOAL_VAR}),
        theory=frozenset({Or(Not(matrix), Var(GOAL_VAR))}),
    )


def base_reduction(matrix: Formula, universal_vars: Sequence[str]) -> AbductionInstance:
    """Instance with an explanation iff the matrix holds for all ``universal_vars``."""
    extra = variables(matrix) - set(universal_vars)
    if extra:
        raise ContractError(
            f"matrix variables outside the universal block: {', '.join(sorted(extra))}"
        )
    if GOAL_VAR in universal_vars:
        raise ContractError(f"universal block uses the reserved name {GOAL_VAR!r}")
    return base_instance(matrix)


def raise_existential(instance: AbductionInstance, name: str, index: int) -> AbductionInstance:
    """Merge the two ``name``-branches of ``instance`` into one instance.

    Adds hypotheses ``name+`` / ``name-`` marking the chosen branch, one
    fresh manifestation forcing a choice, and five linking formulas.
    """
    if name in instance.hypotheses or name in instance.manifestations:
        raise ContractError(f"{name} occurs among the hypotheses or manifestations")
    pos, neg, bridge = f"{name}+", f"{name}-", f"_q{index}"
    occupied = instance.all_variables()
    for fresh in (pos, neg, bridge):
        if fresh in occupied:
            raise ContractError(f"fresh name {fresh!r} already occurs in the instance")
    gadget = (
        Implies(Var(pos), Var(bridge)),
        Implies(Var(neg), Var(bridge)),
        Implies(Var(pos), Var(name)),
        Implies(Var(neg), Not(Var(name))),
        Or(Not(Var(pos)), Not(Var(neg))),
    )
    return AbductionInstance(
        instance.hypotheses | {pos, neg},
        instance.manifestations | {bridge},
        instance.theory | frozenset(gadget),
    )


def split_prefix_ea(q: Qbf) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split an exists*-forall* prefix; reject any other interleaving."""
    existential: list[str] = []
    universal: list[str] = []
    for quant, name in q.prefix:
        if quant is Quantifier.EXISTS:
            if universal:
                raise UnsupportedShapeError(
                    "prefix is not exists*-forall*: existential after universal"
                )
            existential.append(name)
        else:
            universal.append(name)
    return tuple(existential), tuple(universal)


def reduce_qbf(q: Qbf) -> AbductionInstance:
    """Equivalid abduction instance for an exists*-forall* QBF."""
    existential, _ = split_prefix_ea(q)
    if GOAL_VAR in (name for _, name in q.prefix):
        raise ContractError(f"prefix uses the reserved manifestation name {GOAL_VAR!r}")
    instance = base_instance(q.matrix)
    for index, name in enumerate(reversed(existential), start=1):
        instance = raise_existential(instance, name, index)
    return instance


# --- instance text format ----------------------------------------------------

def serialize_instance(instance: AbductionInstance) -> str:
    lines = [
        f"H: {' '.join(sorted(instance.hypotheses))}".rstrip(),
        f"M: {' '.join(sorted(instance.manifestations))}".rstrip(),
    ]
    lines.extend(
        f"T: {serialize_formula(f)}" for f in sorted(instance.theory, key=serialize_formula)
    )
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> AbductionInstance:
    hypotheses: list[str] = []
    manifestations: list[str] = []
    theory: list[Formula] = []
    seen_h = seen_m = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("H:"):
            hypotheses.extend(line[2:].split())
            seen_h = True
        elif line.startswith("M:"):
            manifestations.extend(line[2:].split())
            seen_m = True
        elif line.startswith("T:"):
            theory.append(parse_formula(line[2:]))
        else:
            raise ParseError("expected an 'H:', 'M:', or 'T:' line", lineno, 1)
    if not (seen_h and seen_m):
        raise ParseError("instance needs both an 'H:' and an 'M:' line", 1, 1)
    return AbductionInstance(frozenset(hypotheses), frozenset(manifestations), frozenset(theory))


serialize = serialize_instance
parse = parse_instance
