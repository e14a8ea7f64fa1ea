"""One workload's measurement loop, run in a fresh interpreter by ``run.py``.

    PYTHONPATH=src python3 perfbench/bench_worker.py --workload cap_solve \
        --seed 1 --seconds 30 --trace 0 [--probe] [--out FILE]

Every input is generated from ``--seed``; qraise receives only the generated
inputs. Each workload is a closed loop with one caller, one process and one
thread. The loop runs whole rounds until ``--seconds`` of measuring have
passed; generating a round's inputs happens before the round and is not
counted, nor is the fixed ``reference`` work sampled between cases. The
last line of standard output is one JSON object with the raw case records
and reference times, which ``run.py`` turns into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gzip
import io
import json
import random
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from qraise import abduction, cli, defaults, harness, planning
from qraise import qbf as qbf_module
from qraise.formulas import And, Formula, Iff, Implies, Not, Or, Var, variables
from qraise.harness import PrefixPattern, QbfGenSpec
from qraise.parsing import serialize_qbf
from qraise.qbf import Qbf, Quantifier

import bench_stats
import bench_trace

E, A = Quantifier.EXISTS, Quantifier.FORALL
BINARY = (And, Or, Implies, Iff)

# Bound at import, before any tracing, so input generation and shape checks
# never show up in a trace.
ORACLE = qbf_module.qbf_valid
GENERATE = harness.generate_qbfs
REDUCE = {
    "abduction": abduction.reduce_qbf,
    "default": defaults.reduce_qbf,
    "planning": planning.reduce_qbf,
}


@dataclass
class Case:
    """One unit of measured work: ``work`` is timed, ``check`` is not.

    ``check`` returns the number of the ``n`` cases that came out wrong and
    an optional sub-step time in seconds.
    """

    kind: str
    n: int
    work: Callable[[], object]
    check: Callable[[object], tuple[int, float | None]]


# --- seeded inputs -------------------------------------------------------------

def random_matrix(rng: random.Random, names: tuple[str, ...], leaves: int) -> Formula:
    """A near-balanced random matrix with ``leaves`` literals that mentions
    every name at least once."""
    picks = list(names) + [rng.choice(names) for _ in range(leaves - len(names))]
    rng.shuffle(picks)
    return _tree(rng, picks)


def _tree(rng: random.Random, picks: list[str]) -> Formula:
    if len(picks) == 1:
        var = Var(picks[0])
        return Not(var) if rng.random() < 0.3 else var
    jitter = len(picks) // 16
    half = len(picks) // 2 + rng.randint(-jitter, jitter)
    return rng.choice(BINARY)(_tree(rng, picks[:half]), _tree(rng, picks[half:]))


def depth(f: Formula) -> int:
    deepest = 0
    stack = [(f, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        if isinstance(node, Not):
            stack.append((node.operand, level + 1))
        elif not isinstance(node, Var):
            stack.append((node.left, level + 1))
            stack.append((node.right, level + 1))
    return deepest


def qbf_with_validity(
    rng: random.Random, quants: tuple[Quantifier, ...], leaves: int, valid: bool
) -> Qbf:
    """Draw matrices under a fixed prefix until the oracle gives the wanted answer."""
    names = tuple(f"x{i + 1}" for i in range(len(quants)))
    prefix = tuple(zip(quants, names))
    for _ in range(2000):
        q = Qbf(prefix, random_matrix(rng, names, leaves))
        if ORACLE(q) == valid:
            return q
    raise RuntimeError(f"no {'valid' if valid else 'invalid'} QBF after 2000 draws")


def require(condition: bool, message: str) -> None:
    """Input-shape guard that, unlike ``assert``, survives ``python -O``."""
    if not condition:
        raise RuntimeError(message)


# --- check_sweep -------------------------------------------------------------------

SWEEP_BATCH = 32
SWEEP_PATTERNS = {
    "abduction": PrefixPattern.EXISTS_FORALL,
    "default": PrefixPattern.FORALL_EXISTS,
    "planning": PrefixPattern.ARBITRARY,
}


def sweep_spec(rng: random.Random, pattern: PrefixPattern) -> QbfGenSpec:
    return QbfGenSpec(
        seed=rng.randrange(1 << 31),
        num_vars=4,
        prefix_pattern=pattern,
        matrix_depth=4,
        count=SWEEP_BATCH,
    )


def check_sweep_cases(rng: random.Random, limit: int, workdir: Path) -> list[Case]:
    """One ``check_equivalence`` batch per target, then both oracles on a
    batch of the same generator's QBFs."""
    cases = []
    for kind, pattern in SWEEP_PATTERNS.items():
        spec = sweep_spec(rng, pattern)
        cases.append(
            Case(
                kind,
                SWEEP_BATCH,
                lambda kind=kind, spec=spec: harness.check_equivalence(kind, spec),
                _check_report,
            )
        )
        if len(cases) == limit:
            return cases
    batch = [(q, ORACLE(q)) for q in GENERATE(sweep_spec(rng, PrefixPattern.ARBITRARY))]
    cases.append(Case("validate", len(batch), lambda: _both_oracles(batch), _check_oracles(batch)))
    return cases


def _check_report(report) -> tuple[int, float | None]:
    wrong = report.total - report.agreements + len(report.resource_errors)
    if report.total + len(report.resource_errors) != SWEEP_BATCH:
        wrong = max(wrong, 1)
    return wrong, None


def _both_oracles(batch):
    return [(qbf_module.qbf_valid(q), qbf_module.qbf_valid_by_table(q)) for q, _ in batch]


def _check_oracles(batch):
    def check(answers) -> tuple[int, float | None]:
        wrong = sum(
            1 for (rec, tab), (_, want) in zip(answers, batch) if not rec == tab == want
        )
        return wrong, None

    return check


# --- cap_solve ---------------------------------------------------------------------

# kind -> (prefix, matrix literals). Each matrix mentions every prefix variable.
CAP_PREFIXES = {
    "abduction": ((E,) * 4 + (A,) * 5, 13),
    "default": ((A,) * 5 + (E,) * 8, 16),
    "planning": ((E, A) * 3 + (E,), 11),
    "validate": ((E, A) * 8, 21),
}
# Decisions per case. A planning decision takes about 1/60 of a default
# one, and its time varies most between instances: a batch keeps its
# median from resting on the few instances of one seed.
CAP_BATCH = {"abduction": 1, "default": 1, "planning": 12, "validate": 1}


def assert_cap_shape(kind: str, q: Qbf) -> None:
    """Fail loudly if a reduction no longer yields the stated cap shape."""
    names = {name for _, name in q.prefix}
    require(variables(q.matrix) == names, f"{kind}: matrix misses a prefix variable")
    if kind == "abduction":
        instance = REDUCE[kind](q)
        shape = (len(instance.all_variables()), len(instance.hypotheses))
        require(shape == (22, 8), f"abduction shape {shape} != (22 variables, 8 hypotheses)")
    elif kind == "default":
        theory, query = REDUCE[kind](q)
        shape = (len(theory.all_variables() | {query}), len(theory.defaults))
        require(shape == (19, 11), f"default shape {shape} != (19 variables, 11 defaults)")
    elif kind == "planning":
        fluents = len(REDUCE[kind](q).fluents)
        require(fluents == 18, f"planning shape {fluents} fluents != 18")
    else:
        require(len(q.prefix) == 16, f"validate shape {len(q.prefix)} prefix variables != 16")


def cap_solve_cases(rng: random.Random, limit: int, workdir: Path) -> list[Case]:
    """One case of valid and one of invalid decisions per kind, each at its
    cap shape, so valid and invalid cases are balanced by construction."""
    cases = []
    for kind, (quants, leaves) in CAP_PREFIXES.items():
        for valid in (True, False):
            works = []
            for _ in range(CAP_BATCH[kind]):
                q = qbf_with_validity(rng, quants, leaves, valid)
                assert_cap_shape(kind, q)
                works.append(_CAP_WORK[kind](q))
            cases.append(Case(kind, len(works), _batch(works), _expect(valid)))
            if len(cases) == limit:
                return cases
    return cases


def _batch(works):
    return lambda: [work() for work in works]


def _cap_abduction(q):
    return lambda: abduction.has_explanation(abduction.reduce_qbf(q))


def _cap_default(q):
    def work():
        theory, query = defaults.reduce_qbf(q)
        return defaults.skeptically_entails(theory, Var(query)).holds

    return work


def _cap_planning(q):
    def work():
        instance = planning.reduce_qbf(q)
        found, plan = planning.plan_exists(instance)
        if found and not planning.validate_plan(instance, plan):
            return None  # a plan that fails replay is a wrong answer
        return found

    return work


def _cap_validate(q):
    def work():
        recursive = qbf_module.qbf_valid(q)
        tabled = qbf_module.qbf_valid_by_table(q)
        return recursive if recursive == tabled else None

    return work


_CAP_WORK = {
    "abduction": _cap_abduction,
    "default": _cap_default,
    "planning": _cap_planning,
    "validate": _cap_validate,
}


def _expect(valid: bool):
    return lambda answers: (sum(answer is not valid for answer in answers), None)


# --- text_roundtrip ----------------------------------------------------------------

TEXT_LEAVES = 224  # about 500 nodes
TEXT_DEPTH = 12  # below the recursion limit; deeper matrices crash qraise today
TEXT_POOL = 32  # rounds of distinct files, cycled
# One prefix per target, so that every case has the same instance shape and
# the median does not move with the mix of shapes a seed happens to draw.
TEXT_PREFIXES = {"abduction": (E, E, A, A), "default": (A, A, E, E), "planning": (E, A, E, A)}
SUFFIX = {"abduction": "abd", "default": "dlt", "planning": "plan"}


def text_roundtrip_cases(rng: random.Random, limit: int, workdir: Path) -> list[Case]:
    """``validate``, ``reduce`` and ``solve`` through ``cli.main`` on files."""
    cases = []
    for kind, quants in TEXT_PREFIXES.items():
        for valid in (True, False):
            q = qbf_with_validity(rng, quants, TEXT_LEAVES, valid)
            nesting = depth(q.matrix)
            require(nesting <= TEXT_DEPTH, f"matrix nesting {nesting} > {TEXT_DEPTH}")
            stem = workdir / f"{rng.randrange(1 << 62):x}"
            source = stem.with_suffix(".qbf")
            source.write_text(serialize_qbf(q) + "\n", encoding="utf-8")
            target = stem.with_suffix("." + SUFFIX[kind])
            cases.append(
                Case(kind, 1, _roundtrip(kind, source, target), _check_roundtrip(valid))
            )
            if len(cases) == limit:
                return cases
    return cases


def _roundtrip(kind: str, source: Path, target: Path):
    def work():
        start = time.perf_counter()
        validated = cli.main(["validate", str(source)])
        validate_s = time.perf_counter() - start
        reduced = cli.main(["reduce", "--target", kind, str(source), "-o", str(target)])
        solved = cli.main(["solve", "--target", kind, str(target)])
        return validated, reduced, solved, validate_s

    return work


def _check_roundtrip(valid: bool):
    want = 0 if valid else 1

    def check(result) -> tuple[int, float | None]:
        validated, reduced, solved, validate_s = result
        return int(not (validated == solved == want and reduced == 0)), validate_s

    return check


# --- reference work -------------------------------------------------------------


def reference() -> float:
    """Seconds for a fixed piece of Python work that uses no qraise code:
    dict and string churn, a sort, and bit operations on integers of the
    sizes qraise's truth tables have (32 KiB and 512 KiB). Sampled all
    through a run, it tracks how fast the machine runs Python meanwhile."""
    start = time.perf_counter()
    table: dict[str, int] = {}
    for i in range(1500):
        key = f"k{i % 257}"
        table[key] = table.get(key, 0) + i
    sorted(table.items(), key=lambda item: (item[1] * 7919) % 1009)
    for bits, rounds in ((1 << 18, 12), (1 << 22, 3)):
        wide = (1 << bits) - 1
        acc = 0
        for i in range(rounds):
            acc ^= (wide >> i) & (wide << (i % 7))
    return time.perf_counter() - start


@functools.cache
def _wide_tables() -> tuple[list[int], int]:
    rng = random.Random(19)
    return [rng.getrandbits(1 << 19) for _ in range(24)], (1 << (1 << 19)) - 1


def wide_reference() -> float:
    """Seconds for fixed work shaped like the cap-size deciders, again with
    no qraise code: AND chains and emptiness tests over 24 fixed 64 KiB
    integers, the truth tables of a 19-variable universe (1.5 MiB, built
    once). Other tenants' load slows this wide-integer work by other
    amounts than ``reference``'s mix, and the abduction and default-logic
    deciders of ``cap_solve`` spend their time in it."""
    tables, full = _wide_tables()
    start = time.perf_counter()
    hits = 0
    for mask in range(24):
        acc = full
        for i in range(12):
            if mask >> (i % 5) & 1:
                acc &= tables[i]
        for table in tables[12:]:
            if acc & (full ^ table) == 0 or acc & table != 0:
                hits += 1
    return time.perf_counter() - start


REFERENCE_WORK = {"reference": reference, "wide_reference": wide_reference}


# --- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make: Callable[[random.Random, int, Path], list[Case]]
    count_rounds: int  # traced rounds whose calls and work are counted
    pool: int | None = None  # rounds of distinct inputs before they repeat


WORKLOADS = {
    "check_sweep": Workload(check_sweep_cases, count_rounds=16),
    "cap_solve": Workload(cap_solve_cases, count_rounds=2),
    "text_roundtrip": Workload(text_roundtrip_cases, count_rounds=16, pool=TEXT_POOL),
}


def round_cases(name: str, seed: int, r: int, workdir: Path, limit: int = 0) -> list[Case]:
    """The cases of round ``r``; the same seed and round give the same inputs."""
    return WORKLOADS[name].make(random.Random(f"{name}:{seed}:{r}"), limit, workdir)


# --- measuring -----------------------------------------------------------------------


# Often enough that the samples around a case follow bursts of other
# tenants' load, which last from a fraction of a second to a few seconds.
REFERENCE_EVERY_S = 0.04


class Meter:
    """Runs cases, times ``work`` only, and keeps one record per case:
    ``[kind, round, seconds, n, sub-step seconds or None]``."""

    def __init__(self, tracer: bench_trace.Tracer | None = None):
        self.tracer = tracer
        self.records: list[list] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def run(self, case: Case, r: int) -> None:
        self.attempted += case.n
        tracer = self.tracer
        try:
            if tracer is not None:
                tracer.begin(len(self.records))
            start = time.perf_counter()
            result = case.work()
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.end()
            wrong, sub = case.check(result)
        except Exception as exc:  # one bad case must not hide the others
            self.failed += case.n
            if len(self.notes) < 5:
                self.notes.append(f"round {r} {case.kind}: {type(exc).__name__}: {exc}")
            return
        if wrong and len(self.notes) < 5:
            self.notes.append(f"round {r} {case.kind}: {wrong} of {case.n} wrong")
        self.failed += wrong
        self.records.append([case.kind, r, seconds, case.n, sub])


def measure(
    name: str, seed: int, seconds: float, trace: bool, workdir: Path, count_rounds: int = 0
) -> dict:
    """Warm up on one round, then measure whole rounds for ``seconds``.

    With ``trace``, every round runs twice on the same inputs, once plain
    and once traced, in alternating order; the plain half gives the
    baseline for ``trace.overhead``.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name]
    min_rounds = count_rounds or workload.count_rounds
    plain = Meter()
    tracer = bench_trace.Tracer() if trace else None
    traced = Meter(tracer) if trace else None
    warmup = Meter()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        for case in round_cases(name, seed, 0, workdir):
            warmup.run(case, -1)
        references = {n: REFERENCE_WORK[n] for n in bench_stats.reference_names(name)}
        for work in references.values():
            work()  # builds what it needs, outside the samples
        pool: dict[int, list[Case]] = {}
        speed: dict[str, list[float]] = {n: [] for n in references}
        speed_at: list[int] = []  # plain records measured before each sample
        start = last_reference = time.perf_counter()
        excluded = 0.0
        r = 0
        while r < min_rounds or time.perf_counter() - start - excluded < seconds:
            before = time.perf_counter()
            key = r if workload.pool is None else r % workload.pool
            cases = pool.pop(key, None) or round_cases(name, seed, key, workdir)
            if workload.pool is not None:
                pool[key] = cases
            excluded += time.perf_counter() - before
            meters = [plain] if traced is None else [plain, traced][:: 1 if r % 2 == 0 else -1]
            for meter in meters:
                if meter is traced:
                    tracer.counting = r < min_rounds
                    saved = bench_trace.install(tracer)
                try:
                    for case in cases:
                        meter.run(case, r)
                        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                            for n, work in references.items():
                                speed[n].append(work())
                                excluded += speed[n][-1]
                            speed_at.append(len(plain.records))
                            last_reference = time.perf_counter()
                finally:
                    if meter is traced:
                        bench_trace.uninstall(saved)
            sink.seek(0)
            sink.truncate()
            r += 1
    meters = [warmup, plain] + ([traced] if traced else [])
    result = {
        "workload": name,
        "seed": seed,
        "rounds": r,
        "records": plain.records,
        "reference_s": speed,
        "reference_at": speed_at,
        "attempted": sum(m.attempted for m in meters),
        "failed": sum(m.failed for m in meters),
        "notes": [note for m in meters for note in m.notes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["traced_records"] = traced.records
        result["trace"] = {
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "failures": dict(tracer.failures),
            "work": dict(tracer.work),
        }
        result["spans"] = tracer.kept
    return result


def probe(name: str, seed: int, workdir: Path) -> dict:
    """Set-up probe: the first case of round 0, in a fresh interpreter.
    Afterwards, outside the set-up time, it samples the reference work."""
    workdir.mkdir(parents=True, exist_ok=True)
    meter = Meter()
    with contextlib.redirect_stdout(io.StringIO()):
        for case in round_cases(name, seed, 0, workdir, limit=1):
            meter.run(case, 0)
    if meter.failed:
        raise SystemExit(f"set-up probe failed: {meter.notes}")
    return {"reference_s": [reference() for _ in range(5)]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, default=None, help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    try:
        if args.probe:
            result = probe(args.workload, args.seed, args.workdir)
        else:
            result = measure(
                args.workload, args.seed, args.seconds, bool(args.trace), args.workdir
            )
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    spans = result.pop("spans", None)
    if spans is not None and args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(args.out, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case"], "spans": spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
