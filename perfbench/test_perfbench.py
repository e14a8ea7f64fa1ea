"""The benchmark's own tests: statistics, span arithmetic and repeatable counts.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_stats
import bench_trace
import bench_worker

HERE = Path(__file__).resolve().parent


class TestTail:
    def test_value_has_exactly_ten_samples_beyond_it(self):
        samples = [float(x) for x in range(1, 101)]
        random.Random(0).shuffle(samples)
        value, percentile, n = bench_stats.tail(samples)
        assert (value, percentile, n) == (90.0, 90.0, 100)
        assert sum(s > value for s in samples) == 10

    def test_smallest_sample_count(self):
        assert bench_stats.tail([float(x) for x in range(11)]) == (0.0, 100.0 / 11, 11)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            bench_stats.tail([1.0] * 10)


class TestSampling:
    def test_paired_samples_average_valid_and_invalid(self):
        records = [
            ["planning", 0, 0.010, 1, None],
            ["planning", 0, 0.030, 1, None],
            ["planning", 1, 0.020, 1, None],
            ["planning", 1, 0.040, 1, None],
        ]
        assert bench_stats.kind_samples(records, paired=True)["planning"] == pytest.approx(
            [20.0, 30.0]
        )

    def test_roundtrip_validate_step_is_its_own_kind(self):
        records = [["default", 0, 0.020, 1, 0.004], ["default", 0, 0.030, 1, 0.006]]
        samples = bench_stats.kind_samples(records, paired=True)
        assert samples["default"] == pytest.approx([25.0])
        assert samples["validate"] == pytest.approx([5.0])

    def test_round_samples_are_per_case_means(self):
        records = [["abduction", 0, 0.032, 32, None], ["validate", 0, 0.0, 32, None]]
        assert bench_stats.overall_samples(records, "round") == pytest.approx([0.5])


class TestNormalization:
    def test_each_kind_scales_by_its_reference(self):
        nominal = bench_stats.NOMINAL_S
        # On cap_solve, abduction scales by wide_reference (4x slower
        # here) and planning by reference (2x).
        records = [
            [kind, r, seconds, 1, None]
            for r in range(11)
            for kind, seconds in (("abduction", 0.020), ("planning", 0.010))
        ]
        result = {
            "workload": "cap_solve",
            "records": records,
            "reference_s": {
                "reference": [2 * nominal["reference"]] * 3,
                "wide_reference": [4 * nominal["wide_reference"]] * 3,
            },
            "reference_at": [0, 11, 22],
            "peak_rss_mb": 20.0,
            "attempted": 22,
            "failed": 0,
        }
        setup_reference = [bench_stats.NOMINAL_REFERENCE_S] * 5
        metrics, _ = bench_stats.end_to_end(result, [0.3, 0.2, 0.4], setup_reference)
        assert metrics["abduction.case_ms.p50"] == pytest.approx(5.0)
        assert metrics["planning.case_ms.p50"] == pytest.approx(5.0)
        assert metrics["planning.cases_per_s"] == pytest.approx(200.0)
        assert metrics["case_ms.tail"] == pytest.approx(5.0)
        assert metrics["setup_s"] == pytest.approx(0.3)
        assert set(metrics) == set(bench_stats.END_TO_END)

    def test_each_record_takes_the_samples_nearest_it(self):
        nominal = bench_stats.NOMINAL_REFERENCE_S
        reference_s = [nominal * f for f in (1, 1, 1, 1, 1, 3, 3, 3, 3, 3)]
        reference_at = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        slowdowns = bench_stats.local_slowdowns(10, reference_s, reference_at, nominal)
        assert slowdowns == pytest.approx([1, 1, 1, 1, 1, 3, 3, 3, 3, 3])

    def test_a_slow_stretch_does_not_set_the_tail(self):
        nominal = bench_stats.NOMINAL_REFERENCE_S
        # 40 rounds at 10 ms, the last 10 of them measured while the
        # machine ran at half speed: 20 ms, with references to match.
        records = [["planning", r, 0.010 if r < 30 else 0.020, 1, None] for r in range(40)]
        result = {
            "workload": "text_roundtrip",
            "records": records,
            "reference_s": {"reference": [nominal if r < 30 else 2 * nominal for r in range(40)]},
            "reference_at": list(range(40)),
            "peak_rss_mb": 20.0,
            "attempted": 40,
            "failed": 0,
        }
        metrics, _ = bench_stats.end_to_end(result, [0.3], [nominal])
        assert metrics["case_ms.tail"] == pytest.approx(10.0)
        assert metrics["planning.cases_per_s"] == pytest.approx(100.0)


class TestSelfTimes:
    def test_hand_built_tree(self):
        # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
        spans = [
            ("root", 0.0, 10.0, -1, 0),
            ("a", 1.0, 4.0, 0, 0),
            ("b", 5.0, 9.0, 0, 0),
            ("c", 6.0, 8.0, 2, 0),
        ]
        own = bench_trace.self_times(spans)
        assert own == pytest.approx({"root": 3.0, "a": 3.0, "b": 2.0, "c": 2.0})
        assert sum(own.values()) == pytest.approx(10.0)

    def test_same_name_sums_across_spans(self):
        spans = [("x", 0.0, 4.0, -1, 0), ("x", 1.0, 2.0, 0, 0)]
        assert bench_trace.self_times(spans) == pytest.approx({"x": 4.0})


def traced(workload, tmp_path):
    return bench_worker.measure(
        workload, seed=7, seconds=0, trace=True, workdir=tmp_path, count_rounds=2
    )


@pytest.mark.parametrize("workload", ["check_sweep", "text_roundtrip"])
class TestTracedRun:
    def test_counts_repeat_for_a_seed(self, workload, tmp_path):
        first, second = traced(workload, tmp_path / "a"), traced(workload, tmp_path / "b")
        assert first["failed"] == second["failed"] == 0
        for key in ("calls", "failures", "work"):
            assert first["trace"][key] == second["trace"][key]
        assert [s[0] for s in first["spans"]] == [s[0] for s in second["spans"]]
        assert first["trace"]["work"]

    def test_self_times_add_up_to_case_time(self, workload, tmp_path):
        metrics = bench_stats.per_layer(traced(workload, tmp_path))
        assert set(metrics) == set(bench_stats.PER_LAYER)
        self_total = sum(
            value for name, value in metrics.items() if bench_stats.PER_LAYER[name] == "s/case"
        ) - metrics["trace.case_s"]
        assert self_total == pytest.approx(metrics["trace.case_s"], rel=0.02)

    def test_tracing_leaves_qraise_as_it_was(self, workload, tmp_path):
        import qraise.cli
        import qraise.harness

        before = (qraise.harness.qbf_valid, qraise.cli.parse_qbf, qraise.cli.main)
        traced(workload, tmp_path)
        assert (qraise.harness.qbf_valid, qraise.cli.parse_qbf, qraise.cli.main) == before


class TestInputs:
    def test_same_seed_same_inputs(self, tmp_path):
        def draw():
            rng = random.Random("text_roundtrip:3:0")
            names = ("x1", "x2", "x3", "x4")
            return bench_worker.random_matrix(rng, names, bench_worker.TEXT_LEAVES)

        assert draw() == draw()

    def test_drifted_cap_shape_fails_loudly(self):
        from qraise.formulas import Var
        from qraise.qbf import Qbf

        quants, _ = bench_worker.CAP_PREFIXES["planning"]
        names = [f"x{i + 1}" for i in range(len(quants))]
        short = Qbf(tuple(zip(quants, names)), Var("x1"))
        with pytest.raises(RuntimeError, match="misses a prefix variable"):
            bench_worker.assert_cap_shape("planning", short)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_stats.SAMPLING)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_stats.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_stats.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cap_solve", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode != 0
    assert "correct" not in run.stdout
