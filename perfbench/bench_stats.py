"""Turn a worker's raw case records into the benchmark's metrics.

A record is ``[kind, round, seconds, n, sub-step seconds or None]``: ``n``
cases of one kind (a ``check_sweep`` batch holds 32 QBFs) that took
``seconds`` of qraise work. Kinds are the CLI target names plus
``validate`` (both validity oracles).
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict

import bench_trace

TARGETS = ("abduction", "default", "planning")
KINDS = TARGETS + ("validate",)

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "ratio",
    "cases_per_s": "1/s",
    **{f"{t}.cases_per_s": "1/s" for t in TARGETS},
    **{f"{k}.case_ms.p50": "ms" for k in KINDS},
    "case_ms.p50": "ms",
    "case_ms.tail": "ms",
}

# How each workload forms latency samples. ``paired``: a per-kind sample is
# the mean of one valid and one invalid case of the same round, because
# deciders short-circuit on one answer and a median taken between the two
# clusters would jump. ``overall``: "round" makes one sample per round (a
# round holds one batch of each kind), so the overall median is not taken
# between kinds; "case" makes one sample per case. ``scale_by``: the kinds
# whose slowdown comes from other reference work than ``reference``, by
# the name of its function in ``bench_worker`` (see ``end_to_end``).
WIDE = {"abduction": "wide_reference", "default": "wide_reference"}
SAMPLING = {
    "check_sweep": {"paired": False, "overall": "round", "scale_by": {}},
    "cap_solve": {"paired": True, "overall": "case", "scale_by": WIDE},
    "text_roundtrip": {"paired": True, "overall": "case", "scale_by": {}},
}


def reference_names(workload: str) -> list[str]:
    """The reference work a run of ``workload`` samples."""
    return ["reference", *sorted(set(SAMPLING[workload]["scale_by"].values()))]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample count)``: the value is the 11th
    largest sample, and the percentile is the share of samples at or
    below it.
    """
    n = len(samples)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n, n


def kind_samples(records: list[list], paired: bool) -> dict[str, list[float]]:
    """Per-kind latency samples in ms. ``validate`` also takes the
    ``validate`` step of text round trips, paired the same way."""
    groups: dict[tuple[str, str, int], list[float]] = defaultdict(list)
    for i, (kind, r, seconds, n, sub) in enumerate(records):
        slot = r if paired else i
        groups[kind, kind, slot].append(1000.0 * seconds / n)
        if sub is not None:
            groups["validate", kind, slot].append(1000.0 * sub)
    samples: dict[str, list[float]] = defaultdict(list)
    for (kind, _, _), values in groups.items():
        samples[kind].append(statistics.fmean(values))
    return samples


def overall_samples(records: list[list], overall: str) -> list[float]:
    if overall == "case":
        return [1000.0 * seconds / n for _, _, seconds, n, _ in records]
    rounds: dict[int, list[float]] = defaultdict(lambda: [0.0, 0])
    for _, r, seconds, n, _ in records:
        rounds[r][0] += seconds
        rounds[r][1] += n
    return [1000.0 * seconds / n for seconds, n in rounds.values()]


def rate(records: list[list], kind: str | None = None) -> float:
    """Cases completed per second of work: the median over rounds, so that
    a burst of machine noise in one round does not move it."""
    rounds: dict[int, list[float]] = defaultdict(lambda: [0, 0.0])
    for k, r, seconds, n, _ in records:
        if kind is None or k == kind:
            rounds[r][0] += n
            rounds[r][1] += seconds
    return _median(n / seconds for n, seconds in rounds.values())


def _median(samples) -> float:
    """Median, or 0 when cases that raised left no samples (the run has
    failed then, and says so)."""
    samples = list(samples)
    return statistics.median(samples) if samples else 0.0


# Median time of ``bench_worker.reference`` at which normalized figures
# equal measured ones; about its median on a quiet 2-vCPU x86-64 machine.
NOMINAL_REFERENCE_S = 0.0015
# Nominal times of the reference work, by function name. That of
# ``wide_reference`` is its median time when ``reference`` takes its
# nominal time, at the 1.78 ratio of their medians measured under this
# machine's usual load.
NOMINAL_S = {"reference": NOMINAL_REFERENCE_S, "wide_reference": 0.00267}

# Reference samples, taken nearest a record, whose median gives its slowdown.
LOCAL_REFERENCES = 5


def local_slowdowns(
    count: int, reference_s: list[float], reference_at: list[int], nominal_s: float
) -> list[float]:
    """The slowdown of each of ``count`` records, in measuring order.

    ``reference_at[j]`` is the number of records measured before reference
    sample ``j``. A record's slowdown is the median of the
    ``LOCAL_REFERENCES`` samples nearest it over ``nominal_s``; a run-wide
    median would miss bursts of load that last a second or two.
    """
    if not reference_s:
        raise ValueError("no reference samples to scale by")
    width = min(LOCAL_REFERENCES, len(reference_s))
    slowdowns = []
    for i in range(count):
        first = bisect.bisect_left(reference_at, i)
        lo = min(max(first - width // 2, 0), len(reference_s) - width)
        slowdowns.append(statistics.median(reference_s[lo : lo + width]) / nominal_s)
    return slowdowns


def figures(records: list[list], workload: str) -> tuple[dict[str, float], float, int]:
    """Rates and latencies of ``records``, with the tail's percentile and
    sample count."""
    sampling = SAMPLING[workload]
    per_kind = kind_samples(records, sampling["paired"])
    overall = overall_samples(records, sampling["overall"])
    value, percentile, n = tail(overall) if len(overall) >= 11 else (0.0, 0.0, len(overall))
    return (
        {
            "cases_per_s": rate(records),
            **{f"{t}.cases_per_s": rate(records, t) for t in TARGETS},
            **{f"{k}.case_ms.p50": _median(per_kind[k]) for k in KINDS},
            "case_ms.p50": _median(overall),
            "case_ms.tail": value,
        },
        percentile,
        n,
    )


def end_to_end(
    result: dict, setup_times: list[float], setup_reference: list[float]
) -> tuple[dict[str, float], list[str]]:
    """All end-to-end metrics, plus notes for the human-readable output.

    Other tenants of the machine slow all Python work, by up to half for
    minutes at a time and by more in bursts of a second or two, and not
    all work alike. Every record's times are therefore divided by its own
    slowdown (see ``local_slowdowns``), from the reference work its kind
    is scaled by, before latencies and rates are formed. Set-up time is
    divided by the median slowdown of the set-up probes, which run
    ``reference``. Memory and the pass ratio stay as measured.
    """
    records = result["records"]
    scale_by = SAMPLING[result["workload"]]["scale_by"]
    by_reference = {
        name: local_slowdowns(len(records), samples, result["reference_at"], NOMINAL_S[name])
        for name, samples in result["reference_s"].items()
    }
    slowdowns = [
        by_reference[scale_by.get(kind, "reference")][i] for i, (kind, *_) in enumerate(records)
    ]
    scaled = [
        [kind, r, seconds / f, n, None if sub is None else sub / f]
        for (kind, r, seconds, n, sub), f in zip(records, slowdowns)
    ]
    measured, _, _ = figures(records, result["workload"])
    normalized, percentile, n = figures(scaled, result["workload"])
    setup_slowdown = _median(setup_reference) / NOMINAL_REFERENCE_S
    metrics = {
        "setup_s": statistics.median(setup_times) / setup_slowdown,
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_ratio": 1.0 - result["failed"] / result["attempted"],
        **normalized,
    }
    notes = [f"case_ms.tail is p{percentile:.2f} of {n} samples"]
    for name, factors in by_reference.items():
        q = statistics.quantiles(factors, n=4) if len(factors) > 1 else factors * 3
        notes.append(
            f"{name} slowdown quartiles = {q[0]!r} {q[1]!r} {q[2]!r}"
            f" ({len(result['reference_s'][name])} samples)"
        )
    notes += [
        f"set-up slowdown = {setup_slowdown!r}",
        f"fail_ratio = {result['failed'] / result['attempted']!r} ratio",
        f"measured setup_s = {statistics.median(setup_times)!r} s",
    ] + [f"measured {name} = {figure!r} {END_TO_END[name]}" for name, figure in measured.items()]
    return metrics, notes


# --- per-layer metrics ---------------------------------------------------------------

_RENAMED = {
    bench_trace.ROOT: "bench.self_s",
    bench_trace.COUNT: "trace.count_s",
    "cli.main": "cli.self_s",
}


def _time_metric(span: str) -> str:
    return _RENAMED.get(span, f"{span}_s")


SPANS = tuple(
    dict.fromkeys(
        [bench_trace.ROOT, bench_trace.COUNT] + [span for _, _, span, _ in bench_trace.ENTRY_POINTS]
    )
)
WORK = (
    "harness.cases",
    "formulas.nodes",
    "formulas.table_bits",
    "abduction.instance_vars",
    "abduction.candidate_space",
    "defaults.instance_vars",
    "defaults.candidate_space",
    "defaults.extensions",
    "planning.fluents",
    "planning.actions",
    "planning.plan_steps",
)


def _calls_metric(layer: str) -> str:
    return "formulas.truth_table_calls" if layer == "formulas" else f"{layer}.calls"


PER_LAYER = {
    **{_time_metric(span): "s/case" for span in SPANS},
    "trace.case_s": "s/case",
    **{_calls_metric(layer): "count" for layer in bench_trace.LAYERS},
    **{f"{layer}.failures": "count" for layer in bench_trace.LAYERS},
    **{name: "count" for name in WORK},
    "trace.cases": "count",
    "trace.overhead": "ratio",
}


def per_layer(result: dict) -> dict[str, float]:
    """Self seconds per traced case for every span, and exact counts over
    the counted rounds.

    The self times add up to ``trace.case_s``: every span's time is charged
    to exactly one name, the benchmark's own glue to ``bench.self_s``.
    """
    trace = result["trace"]
    traced = result["traced_records"]
    cases = sum(rec[3] for rec in traced)
    metrics: dict[str, float] = {}
    for span in SPANS:
        metrics[_time_metric(span)] = trace["self_s"].get(span, 0.0) / cases
    metrics["trace.case_s"] = sum(rec[2] for rec in traced) / cases
    for layer in bench_trace.LAYERS:
        metrics[_calls_metric(layer)] = trace["calls"].get(layer, 0)
        metrics[f"{layer}.failures"] = trace["failures"].get(layer, 0)
    for name in WORK:
        metrics[name] = trace["work"].get(name, 0)
    metrics["trace.cases"] = cases
    metrics["trace.overhead"] = rate(traced) / rate(result["records"])
    return metrics
