"""Empirical verification of the constructions.

Three kinds of checks, all exact at desk scale. Each runs on any target in
``TARGETS`` through the target interface, so the harness holds only the
loops and the reports:

* ``check_equivalence`` — generate QBFs (exhaustively over a template set or
  pseudo-randomly), push each through the target's ``reduce_qbf`` and
  ``solve``, and compare the answer against QBF validity. Before any
  comparison the two validity deciders are cross-checked against each other;
  a disagreement is a ``QraiseError``, not a counterexample.
* ``check_lemma`` — the target's ``sample_merge`` draws instances directly
  from one seeded generator and tests the merge property of one raise on
  each.
* ``measure_growth`` — the target's ``growth`` raises repeatedly over a tiny
  base and gives the size per step, with its verdicts against the bound
  class it expects.

Every report is deterministic for a fixed spec; disagreements carry enough
text to replay them, and can be dumped as fixture files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import ModuleType
from typing import Iterator, Sequence

from . import abduction, defaults, planning
from .errors import ContractError, QraiseError, ResourceLimitError, UnsupportedShapeError
from .formulas import FALSE, Formula, Not, TRUE, Var
from .parsing import serialize_qbf, serialize_qbf_compact
from .qbf import CONNECTIVES, SHAPE_BLOCKS, Prefix, Qbf, Quantifier, qbf_valid, qbf_valid_by_table
from .qbf import random_matrix, random_prefix, two_blocks

# Target modules export NAME, SUFFIX, SHAPE, reduce_qbf, solve, serialize, parse,
# sample_merge and growth. Call them as module attributes, so a function rebound on
# the module is the one run.
TARGETS = {m.NAME: m for m in (abduction, defaults, planning)}


def _target(name: str) -> ModuleType:
    """The target module called ``name``."""
    if name not in TARGETS:
        raise ValueError(f"unknown target {name!r}")
    return TARGETS[name]


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

def template_matrices(names: Sequence[str], depth: int) -> list[Formula]:
    """The exhaustive matrix template set over ``names``.

    Depth 0 and 1 give constants, variables, and negated variables. Depth 2
    adds every binary connective over every ordered literal pair, depth 3
    additionally negates those pairs and chains each plain variable pair
    with a third literal on either side. Duplicates are removed, order is
    deterministic. Each name has one ``Var`` and one negation, shared by
    every matrix.
    """
    leaves = {n: Var(n) for n in names}
    negated = {n: Not(v) for n, v in leaves.items()}
    atoms: list[Formula] = [TRUE, FALSE, *leaves.values()]
    literals: list[Formula] = []
    for n in names:
        literals.append(leaves[n])
        literals.append(negated[n])
    out: list[Formula] = list(atoms)
    if depth >= 1:
        out.extend(negated.values())
    if depth >= 2:
        pairs = [conn(l1, l2) for l1 in literals for l2 in literals for conn in CONNECTIVES]
        out.extend(pairs)
        if depth >= 3:
            out.extend(Not(p) for p in pairs)
            plain_pairs = [
                conn(leaves[u], leaves[v]) for u in names for v in names for conn in CONNECTIVES
            ]
            for pair in plain_pairs:
                for lit in literals:
                    for conn in CONNECTIVES:
                        out.append(conn(pair, lit))
                        out.append(conn(lit, pair))
    unique: dict[Formula, None] = {}
    for f in out:
        unique.setdefault(f)
    return list(unique)


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
            yield two_blocks(names, split, shapes)
    else:
        raise ValueError(f"unknown shape class {shapes!r}")


def exhaustive_qbfs(num_vars: int, depth: int, shapes: str) -> Iterator[Qbf]:
    """Every (prefix, template matrix) combination with up to ``num_vars`` variables.

    Each QBF is closed by construction (distinct prefix names ``x1..xn``,
    a matrix over those names), so it is built unchecked."""
    for n in range(num_vars + 1):
        names = tuple(f"x{i + 1}" for i in range(n))
        matrices = template_matrices(names, depth)
        for prefix in _prefixes(names, shapes):
            for matrix in matrices:
                yield Qbf._trusted(prefix, matrix)


def generate_qbfs(spec: QbfGenSpec) -> Iterator[Qbf]:
    """Deterministic QBF stream; exhaustive mode enumerates all interleavings.

    A random QBF has 1 to ``spec.num_vars`` variables, so a random pattern
    with ``num_vars < 1`` is a ``ContractError``. Each QBF is closed by
    construction, like those of ``exhaustive_qbfs``, and built unchecked."""
    if spec.prefix_pattern is PrefixPattern.EXHAUSTIVE:
        yield from exhaustive_qbfs(spec.num_vars, spec.matrix_depth, "any")
        return
    if spec.num_vars < 1:
        raise ContractError(f"random QBFs need num_vars of at least 1, got {spec.num_vars}")
    shape = next(k for k, p in SHAPE_PATTERNS.items() if p is spec.prefix_pattern)
    rng = random.Random(spec.seed)
    valid_seen = 0
    for produced in range(spec.count):
        want_valid = valid_seen * 2 <= produced
        for _ in range(12):
            n = rng.randint(1, spec.num_vars)
            names = tuple(f"x{i + 1}" for i in range(n))
            candidate = Qbf._trusted(
                random_prefix(rng, names, shape),
                random_matrix(rng, names, spec.matrix_depth),
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
    module = _target(target)
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
            raise QraiseError(
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

def check_lemma(target: str, spec: SampleSpec) -> CheckReport:
    """Assert the per-raise merge property on ``spec.count`` instances, each
    drawn and tested by the target's ``sample_merge``."""
    module = _target(target)
    rng = random.Random(spec.seed)
    counterexamples = []
    for index in range(spec.count):
        _, failure, q = module.sample_merge(rng, spec.num_vars, spec.matrix_depth)
        if failure:
            counterexamples.append(
                Counterexample(index, failure, q, expected="merge-property", actual="violated")
            )
    total = max(spec.count, 0)
    return CheckReport(
        target=target,
        mode=f"lemma seed={spec.seed} count={spec.count}",
        total=total,
        agreements=total - len(counterexamples),
        counterexamples=tuple(counterexamples),
    )


# --- growth measurement ---------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GrowthRow:
    raises: int
    variables: int
    items: int  # theory formulas, defaults or actions
    total_size: int  # AST nodes, plus effect literals where the items are actions
    max_action_size: int = 0  # where the items are actions


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
    """Raise ``n_raises`` times over a tiny base and tabulate sizes per step,
    with the target's ``growth``."""
    matrix_size, rows, verdicts = _target(target).growth(n_raises)
    return GrowthTable(target, matrix_size, tuple(GrowthRow(*row) for row in rows), verdicts)
