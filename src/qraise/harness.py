"""Empirical verification of the constructions.

Three kinds of checks, all exact at desk scale:

* ``check_equivalence`` — generate QBFs (exhaustively over a template set or
  pseudo-randomly), push each through a target construction, and compare the
  target's yes/no answer against QBF validity. Before any comparison the two
  validity deciders are cross-checked against each other.
* ``check_lemma`` — sample instances directly and assert the per-raise merge
  properties: explanation-set equality for the existential abduction raise,
  extension correspondence and the AND-merge for the universal default
  raise, and the OR/AND plan merges for planning.
* ``measure_growth`` — raise repeatedly and tabulate per-step size deltas
  against the expected bound class (constant per raise for abduction,
  quadratic total for default theories, a linear action count for planning).

Every report is deterministic for a fixed spec; disagreements carry enough
text to replay them, and can be dumped as fixture files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import abduction, defaults, planning
from .errors import ResourceLimitError, UnsupportedShapeError
from .formulas import And, Const, Formula, Iff, Implies, Not, Or, Var, size, truth_table
from .formulas import Universe, universe
from .parsing import serialize_formula, serialize_qbf, serialize_qbf_compact
from .qbf import SHAPE_BLOCKS, Prefix, Qbf, Quantifier, qbf_valid, qbf_valid_by_table, raise_prefix

# Target modules export NAME, SUFFIX, SHAPE, reduce_qbf, solve, serialize and parse.
# Call them as module attributes, so a function rebound on the module is the one run.
TARGETS = {m.NAME: m for m in (abduction, defaults, planning)}


class PrefixPattern(Enum):
    EXISTS_FORALL = "exists-forall"
    FORALL_EXISTS = "forall-exists"
    ARBITRARY = "arbitrary"
    EXHAUSTIVE = "exhaustive"


# The random prefix pattern of each target shape.
SHAPE_PATTERNS = {
    "ea": PrefixPattern.EXISTS_FORALL,
    "ae": PrefixPattern.FORALL_EXISTS,
    "any": PrefixPattern.ARBITRARY,
}


@dataclass(frozen=True, slots=True)
class QbfGenSpec:
    """What to generate. Random modes are deterministic per seed."""

    seed: int = 0
    num_vars: int = 3
    prefix_pattern: PrefixPattern = PrefixPattern.ARBITRARY
    matrix_depth: int = 3
    count: int = 500  # ignored in exhaustive mode


@dataclass(frozen=True, slots=True)
class SampleSpec:
    """Sampling plan for lemma-level instance checks."""

    seed: int = 0
    count: int = 200
    num_vars: int = 3
    matrix_depth: int = 2


@dataclass(frozen=True, slots=True)
class Counterexample:
    index: int
    description: str
    qbf: Qbf | None
    expected: str
    actual: str


@dataclass(frozen=True, slots=True)
class CheckReport:
    target: str
    mode: str
    total: int
    agreements: int
    counterexamples: tuple[Counterexample, ...]
    resource_errors: tuple[str, ...] = ()
    case_lines: tuple[str, ...] = ()  # populated only when the run collects per-case detail

    @property
    def ok(self) -> bool:
        return not self.counterexamples and not self.resource_errors

    def render(self) -> str:
        lines = [f"target={self.target} mode={self.mode}", *self.case_lines]
        for ce in self.counterexamples:
            reproduce = f" qbf={serialize_qbf_compact(ce.qbf)}" if ce.qbf else ""
            lines.append(
                f"counterexample index={ce.index} expected={ce.expected} actual={ce.actual}"
                f"{reproduce} note={ce.description}"
            )
        for msg in self.resource_errors:
            lines.append(f"resource-error {msg}")
        lines.append(
            f"total={self.total} agreements={self.agreements}"
            f" counterexamples={len(self.counterexamples)}"
            f" resource_errors={len(self.resource_errors)}"
        )
        lines.append("verdict=" + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


# --- matrix templates and QBF generation -------------------------------------

_BINARY: tuple[Callable[[Formula, Formula], Formula], ...] = (And, Or, Implies, Iff)


def template_matrices(names: Sequence[str], depth: int) -> list[Formula]:
    """The exhaustive matrix template set over ``names``.

    Depth 0 and 1 give constants, variables, and negated variables. Depth 2
    adds every binary connective over every ordered literal pair, depth 3
    additionally negates those pairs and chains each plain variable pair
    with a third literal on either side. Duplicates are removed, order is
    deterministic.
    """
    atoms: list[Formula] = [Const(True), Const(False)]
    atoms.extend(Var(n) for n in names)
    literals: list[Formula] = []
    for n in names:
        literals.append(Var(n))
        literals.append(Not(Var(n)))
    out: list[Formula] = list(atoms)
    if depth >= 1:
        out.extend(Not(Var(n)) for n in names)
    if depth >= 2:
        pairs = [conn(l1, l2) for l1 in literals for l2 in literals for conn in _BINARY]
        out.extend(pairs)
        if depth >= 3:
            out.extend(Not(p) for p in pairs)
            plain_pairs = [
                conn(Var(u), Var(v)) for u in names for v in names for conn in _BINARY
            ]
            for pair in plain_pairs:
                for lit in literals:
                    for conn in _BINARY:
                        out.append(conn(pair, lit))
                        out.append(conn(lit, pair))
    unique: dict[Formula, None] = {}
    for f in out:
        unique.setdefault(f)
    return list(unique)


def _two_blocks(names: Sequence[str], split: int, shape: str) -> Prefix:
    """The first ``split`` names in the outer block of ``shape``, the rest in the inner."""
    outer, inner = SHAPE_BLOCKS[shape]
    return tuple((outer if i < split else inner, name) for i, name in enumerate(names))


def _prefixes(names: Sequence[str], shapes: str) -> Iterator[Prefix]:
    n = len(names)
    if shapes == "any":
        for bits in range(1 << n):
            yield tuple(
                (Quantifier.EXISTS if bits >> i & 1 else Quantifier.FORALL, names[i])
                for i in range(n)
            )
    elif shapes in SHAPE_BLOCKS:
        for split in range(n, -1, -1):
            yield _two_blocks(names, split, shapes)
    else:
        raise ValueError(f"unknown shape class {shapes!r}")


def exhaustive_qbfs(num_vars: int, depth: int, shapes: str) -> Iterator[Qbf]:
    """Every (prefix, template matrix) combination with up to ``num_vars`` variables."""
    for n in range(num_vars + 1):
        names = tuple(f"x{i + 1}" for i in range(n))
        matrices = template_matrices(names, depth)
        for prefix in _prefixes(names, shapes):
            for matrix in matrices:
                yield Qbf(prefix, matrix)


def _random_matrix(rng: random.Random, names: Sequence[str], depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.22:
        if not names or rng.random() < 0.12:
            return Const(rng.random() < 0.5)
        return Var(rng.choice(list(names)))
    # Occasionally splice in a tautology or contradiction fragment so deep
    # universal prefixes are not almost always invalid.
    if names and rng.random() < 0.15:
        v = Var(rng.choice(list(names)))
        fragment = Or(v, Not(v)) if rng.random() < 0.5 else And(v, Not(v))
        other = _random_matrix(rng, names, depth - 1)
        conn = rng.choice(_BINARY)
        return conn(fragment, other) if rng.random() < 0.5 else conn(other, fragment)
    if rng.random() < 0.25:
        return Not(_random_matrix(rng, names, depth - 1))
    conn = rng.choice(_BINARY)
    return conn(
        _random_matrix(rng, names, depth - 1), _random_matrix(rng, names, depth - 1)
    )


def _random_prefix(rng: random.Random, names: Sequence[str], shape: str) -> Prefix:
    if shape in SHAPE_BLOCKS:
        return _two_blocks(names, rng.randint(0, len(names)), shape)
    return tuple(
        ((Quantifier.EXISTS if rng.random() < 0.5 else Quantifier.FORALL), name)
        for name in names
    )


def generate_qbfs(spec: QbfGenSpec) -> Iterator[Qbf]:
    """Deterministic QBF stream; exhaustive mode enumerates all interleavings."""
    if spec.prefix_pattern is PrefixPattern.EXHAUSTIVE:
        yield from exhaustive_qbfs(spec.num_vars, spec.matrix_depth, "any")
        return
    shape = next(k for k, p in SHAPE_PATTERNS.items() if p is spec.prefix_pattern)
    rng = random.Random(spec.seed)
    valid_seen = 0
    for produced in range(spec.count):
        want_valid = valid_seen * 2 <= produced
        for _ in range(12):
            n = rng.randint(1, max(1, spec.num_vars))
            names = tuple(f"x{i + 1}" for i in range(n))
            candidate = Qbf(
                _random_prefix(rng, names, shape),
                _random_matrix(rng, names, spec.matrix_depth),
            )
            valid = qbf_valid_by_table(candidate)
            if valid == want_valid:
                break
        if valid:
            valid_seen += 1
        yield candidate


# --- equivalence checking -----------------------------------------------------

def _cases_for(target: str, spec: QbfGenSpec) -> Iterator[Qbf]:
    shape = TARGETS[target].SHAPE
    if spec.prefix_pattern is PrefixPattern.EXHAUSTIVE:
        return exhaustive_qbfs(spec.num_vars, spec.matrix_depth, shape)
    if shape != "any" and spec.prefix_pattern is not SHAPE_PATTERNS[shape]:
        raise UnsupportedShapeError(
            f"target {target!r} does not support prefix pattern {spec.prefix_pattern.value!r}"
        )
    return generate_qbfs(spec)


def check_equivalence(
    target: str,
    spec: QbfGenSpec,
    fixture_dir: Path | str | None = None,
    collect_cases: bool = False,
) -> CheckReport:
    """Compare the target's answer with QBF validity on every generated case."""
    module = TARGETS[target]
    mode = (
        f"pattern={spec.prefix_pattern.value} vars={spec.num_vars} depth={spec.matrix_depth}"
        + ("" if spec.prefix_pattern is PrefixPattern.EXHAUSTIVE else f" seed={spec.seed} count={spec.count}")
    )
    total = agreements = 0
    counterexamples: list[Counterexample] = []
    resource_errors: list[str] = []
    case_lines: list[str] = []
    for index, q in enumerate(_cases_for(target, spec)):
        total += 1
        recursive = qbf_valid(q)
        tabled = qbf_valid_by_table(q)
        if recursive != tabled:
            raise AssertionError(
                f"validity oracles disagree on {serialize_qbf_compact(q)}:"
                f" recursive={recursive} table={tabled}"
            )
        try:
            instance = module.reduce_qbf(q)
            answer, _ = module.solve(instance)
        except ResourceLimitError as exc:
            resource_errors.append(f"index={index} qbf={serialize_qbf_compact(q)} {exc}")
            total -= 1
            continue
        if collect_cases:
            case_lines.append(
                f"case={index} valid={int(recursive)} answer={int(answer)}"
                f" agree={int(answer == recursive)} qbf={serialize_qbf_compact(q)}"
            )
        if answer == recursive:
            agreements += 1
        else:
            ce = Counterexample(
                index=index,
                description=f"{target} answer diverges from validity",
                qbf=q,
                expected=str(recursive),
                actual=str(answer),
            )
            counterexamples.append(ce)
            if fixture_dir is not None:
                _write_fixture(Path(fixture_dir), target, ce, module.serialize(instance))
    return CheckReport(
        target=target,
        mode=mode,
        total=total,
        agreements=agreements,
        counterexamples=tuple(counterexamples),
        resource_errors=tuple(resource_errors),
        case_lines=tuple(case_lines),
    )


def _write_fixture(directory: Path, target: str, ce: Counterexample, instance_text: str) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"counterexample-{target}-{ce.index:06d}"
    if ce.qbf is not None:
        (directory / f"{stem}.qbf").write_text(serialize_qbf(ce.qbf) + "\n", encoding="utf-8")
    (directory / f"{stem}.{TARGETS[target].SUFFIX}").write_text(instance_text, encoding="utf-8")


# --- lemma-level checks --------------------------------------------------------

def _random_abduction_instance(
    rng: random.Random, spec: SampleSpec
) -> tuple[abduction.AbductionInstance, str]:
    pivot = "x"
    pool = [pivot] + [f"v{i + 1}" for i in range(rng.randint(1, max(1, spec.num_vars - 1)))]
    side = [n for n in pool if n != pivot]
    rng.shuffle(side)
    h_count = rng.randint(0, min(2, len(side)))
    hypotheses = frozenset(side[:h_count])
    m_pool = side[h_count:]
    manifestations = frozenset(m_pool[: rng.randint(0, min(2, len(m_pool)))])
    theory = frozenset(
        _random_matrix(rng, pool, spec.matrix_depth) for _ in range(rng.randint(0, 3))
    )
    return abduction.AbductionInstance(hypotheses, manifestations, theory), pivot


def _check_abduction_lemma(
    instance: abduction.AbductionInstance, pivot: str
) -> tuple[bool, str]:
    raised = abduction.raise_existential(instance, pivot, 1)
    merged = abduction.enumerate_explanations(raised)
    on_true = abduction.enumerate_explanations(
        abduction.substitute_theory(instance, pivot, True)
    )
    on_false = abduction.enumerate_explanations(
        abduction.substitute_theory(instance, pivot, False)
    )
    expected = frozenset(s | {f"{pivot}+"} for s in on_true) | frozenset(
        s | {f"{pivot}-"} for s in on_false
    )
    return merged == expected, f"expected={sorted(map(sorted, expected))} actual={sorted(map(sorted, merged))}"


def _random_default_theory(
    rng: random.Random, spec: SampleSpec
) -> tuple[defaults.DefaultTheory, str, str]:
    pivot = "x"
    query = "q0"
    pool = [pivot, query] + [f"v{i + 1}" for i in range(rng.randint(0, max(0, spec.num_vars - 2)))]
    count = rng.randint(1, 5)
    made = []
    for _ in range(count):
        prerequisite = (
            Const(True) if rng.random() < 0.6 else _random_matrix(rng, pool, 1)
        )
        justification = _random_matrix(rng, pool, spec.matrix_depth)
        consequence = _random_matrix(rng, pool, spec.matrix_depth)
        made.append(defaults.Default(prerequisite, justification, consequence))
    return defaults.DefaultTheory(tuple(made), frozenset()), pivot, query


def _signature(formulas: Sequence[Formula], u: Universe) -> int:
    table = u.full
    for f in formulas:
        table &= truth_table(f, u.order, u.width)
    return table


def _check_default_lemma(
    theory: defaults.DefaultTheory, pivot: str, query: str
) -> tuple[bool, str]:
    raised = defaults.raise_universal(theory, pivot, 1)
    guard = "_p1"
    u = universe(sorted(raised.all_variables() | {pivot, guard, query}))

    raised_sigs = sorted(
        _signature(sorted(e.consequences, key=serialize_formula), u)
        for e in defaults.extensions(raised)
    )
    expected_sigs: list[int] = []
    for value, tag in ((True, Var(pivot)), (False, Not(Var(pivot)))):
        branch = defaults.substitute_theory(theory, pivot, value)
        for e in defaults.extensions(branch):
            expected_sigs.append(
                _signature(sorted(e.consequences, key=serialize_formula) + [tag, Var(guard)], u)
            )
    expected_sigs.sort()
    if raised_sigs != expected_sigs:
        return False, f"extension signatures differ: {raised_sigs} vs {expected_sigs}"

    merged = bool(defaults.skeptically_entails(raised, Var(query)))
    branch_true = bool(
        defaults.skeptically_entails(defaults.substitute_theory(theory, pivot, True), Var(query))
    )
    branch_false = bool(
        defaults.skeptically_entails(defaults.substitute_theory(theory, pivot, False), Var(query))
    )
    if merged != (branch_true and branch_false):
        return False, (
            f"skeptical merge broke: merged={merged} branches=({branch_true},{branch_false})"
        )
    return True, ""


def _check_planning_merge(rng: random.Random, spec: SampleSpec) -> tuple[bool, str, Qbf]:
    n = rng.randint(1, spec.num_vars)
    names = tuple(f"x{i + 1}" for i in range(n))
    prefix = _random_prefix(rng, names, "any")
    matrix = _random_matrix(rng, names, spec.matrix_depth)
    q = Qbf(prefix, matrix)
    # raise everything except the outermost variable, then test its merge
    instance = raise_prefix(
        planning.base_instance(matrix, list(names) + [planning.GOAL_VAR]),
        prefix[1:],
        planning.RAISES,
    )
    quant, name = prefix[0]
    on_true = planning.plan_exists(planning.substitute_fluent(instance, name, True))[0]
    on_false = planning.plan_exists(planning.substitute_fluent(instance, name, False))[0]
    exists = quant is Quantifier.EXISTS
    expected = (on_true or on_false) if exists else (on_true and on_false)
    actual = planning.plan_exists(planning.RAISES[quant](instance, name, len(prefix)))[0]
    return (
        actual == expected,
        f"{'OR' if exists else 'AND'}-merge on {name}: branches=({on_true},{on_false})"
        f" merged={actual}",
        q,
    )


def check_lemma(target: str, spec: SampleSpec) -> CheckReport:
    """Assert the per-raise merge property on ``spec.count`` sampled instances."""
    rng = random.Random(spec.seed)
    total = agreements = 0
    counterexamples: list[Counterexample] = []
    for index in range(spec.count):
        if target == abduction.NAME:
            instance, pivot = _random_abduction_instance(rng, spec)
            ok, note = _check_abduction_lemma(instance, pivot)
            q = None
            if not ok:
                note = f"{note} instance={abduction.serialize_instance(instance)!r}"
        elif target == defaults.NAME:
            theory, pivot, query = _random_default_theory(rng, spec)
            ok, note = _check_default_lemma(theory, pivot, query)
            q = None
            if not ok:
                note = f"{note} theory={defaults.serialize_theory(theory, query)!r}"
        elif target == planning.NAME:
            ok, note, q = _check_planning_merge(rng, spec)
        else:
            raise ValueError(f"unknown target {target!r}")
        total += 1
        if ok:
            agreements += 1
        else:
            counterexamples.append(
                Counterexample(index, note, q, expected="merge-property", actual="violated")
            )
    return CheckReport(
        target=target,
        mode=f"lemma seed={spec.seed} count={spec.count}",
        total=total,
        agreements=agreements,
        counterexamples=tuple(counterexamples),
    )


# --- growth measurement ---------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GrowthRow:
    raises: int
    variables: int
    items: int  # theory formulas / defaults / actions
    total_size: int  # AST nodes plus, for planning, effect literals
    max_action_size: int = 0  # planning only


@dataclass(frozen=True, slots=True)
class GrowthTable:
    target: str
    matrix_size: int
    rows: tuple[GrowthRow, ...]
    verdicts: tuple[tuple[str, bool], ...] = field(default=())

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.verdicts)

    def render(self) -> str:
        lines = [f"target={self.target} matrix_size={self.matrix_size}"]
        lines.append("raises variables items total_size max_action_size")
        for row in self.rows:
            lines.append(
                f"{row.raises:6d} {row.variables:9d} {row.items:5d} {row.total_size:10d}"
                f" {row.max_action_size:15d}"
            )
        for name, passed in self.verdicts:
            lines.append(f"check {name}: {'PASS' if passed else 'FAIL'}")
        return "\n".join(lines)


def measure_growth(target: str, n_raises: int) -> GrowthTable:
    """Raise ``n_raises`` times over a tiny base and tabulate sizes per step."""
    if target == abduction.NAME:
        return _growth_abduction(n_raises)
    if target == defaults.NAME:
        return _growth_default(n_raises)
    if target == planning.NAME:
        return _growth_planning(n_raises)
    raise ValueError(f"unknown target {target!r}")


def _growth_abduction(n_raises: int) -> GrowthTable:
    # The matrix mentions every variable about to be raised, as a real
    # reduction would, so each raise adds only its three gadget names.
    names = [f"e{k}" for k in range(1, n_raises + 1)]
    matrix: Formula = Or(Var("u"), Not(Var("u")))
    for name in names:
        matrix = And(matrix, Or(Var(name), Not(Var(name))))
    instance = abduction.base_instance(matrix)
    rows = [_abduction_row(0, instance)]
    for k, name in enumerate(names, start=1):
        instance = abduction.raise_existential(instance, name, k)
        rows.append(_abduction_row(k, instance))
    deltas = [
        (
            rows[i].variables - rows[i - 1].variables,
            rows[i].items - rows[i - 1].items,
            rows[i].total_size - rows[i - 1].total_size,
        )
        for i in range(1, len(rows))
    ]
    constant = len(set(deltas)) <= 1
    per_raise_shape = deltas[0] == (3, 5, 18) if deltas else True
    return GrowthTable(
        target=abduction.NAME,
        matrix_size=size(matrix),
        rows=tuple(rows),
        verdicts=(
            ("per-raise deltas identical", constant),
            ("each raise adds 3 variables and 5 formulas", per_raise_shape),
        ),
    )


def _abduction_row(k: int, instance: abduction.AbductionInstance) -> GrowthRow:
    return GrowthRow(
        raises=k,
        variables=len(instance.all_variables()),
        items=len(instance.theory),
        total_size=sum(size(f) for f in instance.theory),
    )


def _growth_default(n_raises: int) -> GrowthTable:
    matrix = Var("y")
    theory, _ = defaults.base_reduction(matrix, ["y"])
    rows = [_default_row(0, theory)]
    for k in range(1, n_raises + 1):
        theory = defaults.raise_universal(theory, f"u{k}", k)
        rows.append(_default_row(k, theory))
    totals = [row.total_size for row in rows]
    first = [totals[i + 1] - totals[i] for i in range(len(totals) - 1)]
    second = [first[i + 1] - first[i] for i in range(len(first) - 1)]
    quadratic = len(set(second)) <= 1
    two_defaults = all(
        rows[i].items - rows[i - 1].items == 2 for i in range(1, len(rows))
    )
    return GrowthTable(
        target=defaults.NAME,
        matrix_size=size(matrix),
        rows=tuple(rows),
        verdicts=(
            ("each raise adds exactly 2 defaults", two_defaults),
            ("total size grows exactly quadratically", quadratic),
        ),
    )


def _default_row(k: int, theory: defaults.DefaultTheory) -> GrowthRow:
    total = sum(
        size(d.prerequisite) + size(d.justification) + size(d.consequence)
        for d in theory.defaults
    )
    return GrowthRow(
        raises=k,
        variables=len(theory.all_variables()),
        items=len(theory.defaults),
        total_size=total,
    )


def _growth_planning(n_raises: int) -> GrowthTable:
    matrix = Or(Var("x1"), Not(Var("x1")))
    names = [f"x{i + 1}" for i in range(max(1, n_raises))]
    instance = planning.base_instance(matrix, names + [planning.GOAL_VAR])
    chain = [instance]
    for k in range(1, n_raises + 1):
        name = names[k - 1]
        if k % 2 == 1:
            instance = planning.raise_universal(instance, name, k)
        else:
            instance = planning.raise_existential(instance, name, k)
        chain.append(instance)
    rows = tuple(_planning_row(k, inst) for k, inst in enumerate(chain))
    m = size(matrix)
    action_bound = all(row.items <= 3 * row.raises + 1 for row in rows)
    # Each raise conjoins one guard (2 nodes) onto every earlier precondition,
    # so after k raises no precondition should exceed matrix + 2k + constant.
    precondition_bound = all(
        size(act.precondition) <= m + 2 * k + 3
        for k, inst in enumerate(chain)
        for act in inst.actions
    )
    return GrowthTable(
        target=planning.NAME,
        matrix_size=m,
        rows=rows,
        verdicts=(
            ("actions <= 3n+1", action_bound),
            ("precondition size <= matrix + 2n + 3", precondition_bound),
        ),
    )


def _planning_row(k: int, instance: planning.PlanningInstance) -> GrowthRow:
    sizes = [
        size(act.precondition) + len(act.effects) for act in instance.actions
    ]
    return GrowthRow(
        raises=k,
        variables=len(instance.fluents),
        items=len(instance.actions),
        total_size=sum(sizes),
        max_action_size=max(sizes),
    )
