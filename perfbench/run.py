"""The qraise benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload {check_sweep,cap_solve,text_roundtrip} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; qraise is imported from ``src/``, nothing is
installed. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (spans go to ``perfbench/out/``). The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Any wrong answer,
cap error or exception makes ``correct`` false and the exit status 1.

Each workload runs in a fresh interpreter with a fixed ``PYTHONHASHSEED``;
``setup_s`` is the median of several more fresh interpreters, each timed
from start through its first completed case. Every case's time, and
``setup_s``, are scaled by how fast the machine ran a fixed reference
computation around it (``bench_stats.end_to_end``); every run also prints
the figures as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import bench_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "bench_worker.py"
OUT = HERE / "out"
WORKLOADS = tuple(bench_stats.SAMPLING)
SETUP_PROBES = 7
TIME_LIMIT = 170.0  # seconds for the whole command


def machine_note() -> str:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()}"
        f" commit={commit[:12]}"
    )


def child(args: list[str], env: dict[str, str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(timeout, 1.0),
    )


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qraise benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "qraise" / "__init__.py").is_file():
        return fail(f"no qraise sources under {ROOT / 'src'}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    # Pin glibc's allocator thresholds. Left dynamic, the mmap threshold
    # moves with the history of frees, so the 512 KiB truth tables of a
    # 22-variable universe come from mmap (fresh pages) in some runs and
    # from the heap in others: the same abduction case measured 75 ms or
    # 150 ms by that alone. These are the ceilings the dynamic rule can
    # reach on 64-bit glibc (trim at twice the mmap threshold).
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(64 << 20)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    workdir = OUT / f"work-{os.getpid()}"

    setup_times: list[float] = []
    setup_reference: list[float] = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            begin = time.perf_counter()
            probe = child(common + ["--probe", "--workdir", str(workdir)], env, 60.0)
            setup_times.append(time.perf_counter() - begin)
            if probe.returncode != 0:
                return fail(f"set-up probe failed:\n{probe.stderr}")
            setup_reference += json.loads(probe.stdout.splitlines()[-1])["reference_s"]

    spans = OUT / f"spans-{args.workload}-{args.seed}.json.gz"
    run = child(
        common
        + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        + ["--workdir", str(workdir), "--out", str(spans)],
        env,
        TIME_LIMIT - (time.perf_counter() - started),
    )
    if run.returncode != 0 or not run.stdout.strip():
        return fail(f"worker failed with status {run.returncode}:\n{run.stderr}")
    result = json.loads(run.stdout.strip().splitlines()[-1])

    print(f"workload={args.workload} seed={args.seed} rounds={result['rounds']} {machine_note()}")
    for note in result["notes"]:
        print(f"failure: {note}")
    if args.trace:
        metrics = bench_stats.per_layer(result)
        units = bench_stats.PER_LAYER
        print(f"spans of the counted rounds: {spans.relative_to(ROOT)}")
    else:
        metrics, notes = bench_stats.end_to_end(result, setup_times, setup_reference)
        units = bench_stats.END_TO_END
        print("\n".join(notes))
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as exc:
        sys.exit(fail(f"timed out: {exc}"))
