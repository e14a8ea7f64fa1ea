"""Propositional abduction: explanation existence and its QBF encoding.

An instance is a triple of hypothesis variables H, manifestation variables
M, and a theory T of formulas. An explanation is a subset S of H such that
S together with T is consistent and entails every manifestation. Since S
and M mention only hypotheses and manifestations, the decider works on T
projected onto H and M (``formulas.project``); every other variable, the
raised existentials and the universal block of a reduction among them,
is eliminated first.

``base_reduction`` encodes "for all Y, matrix" as explanation existence of
``<{}, {a}, {!matrix | a}>``. ``raise_existential`` then merges the two
instances obtained by fixing a variable ``x`` to true and false into one
instance whose explanations are exactly the branch explanations tagged with
``x+`` or ``x-``. Folding the merge over a leading existential block turns
any exists*-forall* QBF into an equivalid instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ContractError, ParseError, ResourceLimitError
from .formulas import (
    And,
    Formula,
    Implies,
    Not,
    Or,
    Var,
    conjunction,
    consistent,
    entails,
    project,
    size,
    substitute,
    truth_table,
    variables,
)
from .parsing import instance_lines, parse_formula, serialize_formula
from .qbf import Qbf, Quantifier, raise_prefix, random_matrix, split_prefix

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
    # A candidate S and the manifestations mention only H and M, so S with T
    # is consistent and entails M exactly when S with T projected onto H and
    # M is and does: one table over H and M serves every candidate subset.
    u, theory_mask = project(instance.theory, instance.hypotheses | instance.manifestations)
    goal_mask = u.full
    for name in sorted(instance.manifestations):
        goal_mask &= truth_table(Var(name), u.order, u.width)
    hyp_masks = [
        (name, truth_table(Var(name), u.order, u.width)) for name in sorted(instance.hypotheses)
    ]
    not_goal = u.full ^ goal_mask
    # Preorder over subsets of the name-sorted hypotheses: a set, then its
    # extensions by higher-named hypotheses in ascending order. That is the
    # lexicographic order, so the first hit is the least explanation. An entry
    # is (chosen indices, table, next index to add); it is visited when first
    # popped, with that index just past its last hypothesis. A subtree whose
    # table is 0 is skipped: adding hypotheses only shrinks the table.
    stack = [((), theory_mask, 0)] if theory_mask else []
    found: list[Explanation] = []
    while stack:
        chosen, mask, start = stack.pop()
        if start == (chosen[-1] + 1 if chosen else 0) and mask & not_goal == 0:
            found.append(frozenset(hyp_masks[i][0] for i in chosen))
            if first_only:
                return found
        for i in range(start, len(hyp_masks)):
            narrowed = mask & hyp_masks[i][1]
            if narrowed:
                stack.append((chosen, mask, i + 1))
                stack.append((chosen + (i,), narrowed, i + 1))
                break
    return found


def enumerate_explanations(instance: AbductionInstance) -> frozenset[Explanation]:
    """All explanations, by exhaustive enumeration of hypothesis subsets."""
    return frozenset(_explanations(instance, first_only=False))


def has_explanation(instance: AbductionInstance) -> bool:
    """Short-circuiting form of ``enumerate_explanations``."""
    return bool(_explanations(instance, first_only=True))


def solve(instance: AbductionInstance) -> tuple[bool, str]:
    """Decide ``instance``; the detail names its lexicographically least explanation."""
    explanations = _explanations(instance, first_only=True)
    if not explanations:
        return False, ""
    return True, f"explanation={{{', '.join(sorted(explanations[0]))}}}"


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
    return _base_instance(matrix)


def _base_instance(matrix: Formula) -> AbductionInstance:
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
    fresh manifestation forcing a choice, and five linking formulas. The
    fresh names are checked against the whole instance, which this walks;
    ``reduce_qbf`` checks them once against the QBF's prefix instead.
    """
    if name in instance.hypotheses or name in instance.manifestations:
        raise ContractError(f"{name} occurs among the hypotheses or manifestations")
    occupied = instance.all_variables()
    for fresh in _fresh_names(name, index):
        if fresh in occupied:
            raise ContractError(f"fresh name {fresh!r} already occurs in the instance")
    return _raise_existential(instance, name, index)


def _fresh_names(name: str, index: int) -> tuple[str, str, str]:
    """The two branch hypotheses and the manifestation of raise ``index``."""
    return f"{name}+", f"{name}-", f"_q{index}"


def _raise_existential(instance: AbductionInstance, name: str, index: int) -> AbductionInstance:
    """``raise_existential`` without its checks."""
    pos, neg, bridge = _fresh_names(name, index)
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


def reduce_qbf(q: Qbf) -> AbductionInstance:
    """Equivalid abduction instance for an exists*-forall* QBF.

    The names a raise must find unused are checked once, up front: the
    instance mentions only prefix names (``Qbf`` admits no other matrix
    variable), ``GOAL_VAR`` and earlier raises' fresh names, and the fresh
    names differ from each other and from ``GOAL_VAR``. So no raise can
    clash unless some prefix name is a fresh name; only then does the fold
    take the checked raises, whose walk of the instance finds whether the
    name really occurs there yet.
    """
    existential, _ = split_prefix(q, SHAPE)
    names = {name for _, name in q.prefix}
    if GOAL_VAR in names:
        raise ContractError(f"prefix uses the reserved manifestation name {GOAL_VAR!r}")
    fresh = {
        new
        for index, (_, name) in enumerate(reversed(existential), start=1)
        for new in _fresh_names(name, index)
    }
    step = raise_existential if names & fresh else _raise_existential
    return raise_prefix(_base_instance(q.matrix), existential, {Quantifier.EXISTS: step})


# --- lemma check and growth (see harness.check_lemma, measure_growth) ---------

def sample_merge(
    rng: random.Random, num_vars: int, depth: int
) -> tuple[AbductionInstance, str, Qbf | None]:
    """Draw an instance over pivot ``x`` and up to ``num_vars - 1`` other
    variables, and test the existential merge on ``x``: the raised
    instance's explanations must be the tagged union of the two branches'.
    Returns the instance, ``""`` or what broke, and no QBF."""
    pivot = "x"
    pool = [pivot] + [f"v{i + 1}" for i in range(rng.randint(1, max(1, num_vars - 1)))]
    side = pool[1:]
    rng.shuffle(side)
    h_count = rng.randint(0, min(2, len(side)))
    m_pool = side[h_count:]
    manifestations = frozenset(m_pool[: rng.randint(0, min(2, len(m_pool)))])
    theory = frozenset(random_matrix(rng, pool, depth) for _ in range(rng.randint(0, 3)))
    instance = AbductionInstance(frozenset(side[:h_count]), manifestations, theory)
    merged = enumerate_explanations(raise_existential(instance, pivot, 1))
    on_true = enumerate_explanations(substitute_theory(instance, pivot, True))
    on_false = enumerate_explanations(substitute_theory(instance, pivot, False))
    expected = frozenset(s | {f"{pivot}+"} for s in on_true) | frozenset(
        s | {f"{pivot}-"} for s in on_false
    )
    if merged == expected:
        return instance, "", None
    return instance, (
        f"expected={sorted(map(sorted, expected))} actual={sorted(map(sorted, merged))}"
        f" instance={serialize_instance(instance)!r}"
    ), None


def growth(n_raises: int) -> tuple[int, list[tuple[int, ...]], tuple[tuple[str, bool], ...]]:
    """Raise ``n_raises`` times over a tiny base. Returns the matrix size,
    one row (raises, variables, theory formulas, total size) per step, and
    the verdicts on the bound: the same constant growth on every raise."""
    # The matrix mentions every variable about to be raised, as a real
    # reduction would, so each raise adds only its three gadget names.
    names = [f"e{k}" for k in range(1, n_raises + 1)]
    matrix: Formula = Or(Var("u"), Not(Var("u")))
    for name in names:
        matrix = And(matrix, Or(Var(name), Not(Var(name))))
    instance = base_instance(matrix)
    rows = []
    for k in range(n_raises + 1):
        if k:
            instance = raise_existential(instance, names[k - 1], k)
        theory = instance.theory
        rows.append((k, len(instance.all_variables()), len(theory), sum(map(size, theory))))
    deltas = [
        tuple(new - old for old, new in zip(before[1:], after[1:]))
        for before, after in zip(rows, rows[1:])
    ]
    return size(matrix), rows, (
        ("per-raise deltas identical", len(set(deltas)) <= 1),
        ("each raise adds 3 variables and 5 formulas", not deltas or deltas[0] == (3, 5, 18)),
    )


# --- instance text format ----------------------------------------------------

def serialize_instance(instance: AbductionInstance) -> str:
    lines = [
        f"H: {' '.join(sorted(instance.hypotheses))}".rstrip(),
        f"M: {' '.join(sorted(instance.manifestations))}".rstrip(),
    ]
    lines.extend(f"T: {text}" for text in sorted(map(serialize_formula, instance.theory)))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> AbductionInstance:
    hypotheses: list[str] = []
    manifestations: list[str] = []
    theory: list[Formula] = []
    seen_h = seen_m = False
    for keyword, body, line, column in instance_lines(text, ("H:", "M:", "T:")):
        if keyword == "H:":
            hypotheses.extend(body.split())
            seen_h = True
        elif keyword == "M:":
            manifestations.extend(body.split())
            seen_m = True
        elif keyword == "T:":
            theory.append(parse_formula(body, line, column))
        else:
            raise ParseError("expected an 'H:', 'M:', or 'T:' line", line, column)
    if not (seen_h and seen_m):
        raise ParseError("instance needs both an 'H:' and an 'M:' line", 1, 1)
    return AbductionInstance(frozenset(hypotheses), frozenset(manifestations), frozenset(theory))


serialize = serialize_instance
parse = parse_instance
