"""Spans and work counts recorded from outside qraise.

The traced run rebinds qraise's public entry points, in this process only,
to wrappers that open a span around each call. Imported copies of a name
(``qraise.harness.qbf_valid``, ``qraise.cli.parse_qbf``, ...) are rebound
too, so calls between modules are seen. ``truth_table`` is wrapped only in
the modules that import it, never in ``qraise.formulas``, so its own
recursion is not counted. No file under ``src/`` is touched.

Everything runs in one thread with no queue, so no layer ever waits on
another: a layer's self time (its span minus the spans it caused) is the
whole per-layer story.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Sequence

# A span is (name, start, end, parent index or -1, case id).
Span = tuple

ROOT = "bench.case"
COUNT = "trace.count"


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, own):
        totals[span[0]] += seconds
    return dict(totals)


class Tracer:
    """Collects spans case by case and folds them into per-name self times.

    Spans of every case feed the self times; only cases marked ``counting``
    keep their spans and add to the call, failure and work counts, so those
    counts cover a fixed set of inputs and repeat exactly for a seed.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.failures: Counter[str] = Counter()
        self.work: Counter[str] = Counter()
        self.kept: list[Span] = []
        self.counting = False
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._case = -1

    def begin(self, case_id: int) -> None:
        self._spans = []
        self._stack = []
        self._case = case_id
        self.open(ROOT)

    def end(self) -> float:
        """Close the case; returns its root span's duration in seconds."""
        self.close(0)
        spans = [tuple(s) for s in self._spans]
        for name, seconds in self_times(spans).items():
            self.self_s[name] += seconds
        if self.counting:
            offset = len(self.kept)
            self.kept.extend(
                (name, start, end, parent + offset if parent >= 0 else -1, case)
                for name, start, end, parent, case in spans
            )
        return spans[0][2] - spans[0][1]

    def open(self, name: str) -> int:
        index = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([name, time.perf_counter(), 0.0, parent, self._case])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, counter: Callable, args: tuple, result) -> None:
        """Run a work counter inside its own span, so its cost is not
        charged to the layer that called the traced function."""
        index = self.open(COUNT)
        counter(self.work, args, result)
        self.close(index)


def wrap(tracer: Tracer, name: str, fn: Callable, counter: Callable | None) -> Callable:
    layer = name.split(".")[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index)
            if tracer.counting:
                tracer.calls[layer] += 1
                tracer.failures[layer] += 1
            raise
        tracer.close(index)
        if tracer.counting:
            tracer.calls[layer] += 1
            if counter is not None:
                tracer.count(counter, args, result)
        return result

    return traced


def wrap_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Time each ``next`` on the generator as one span."""
    layer = name.split(".")[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stream = fn(*args, **kwargs)
        while True:
            index = tracer.open(name)
            try:
                item = next(stream)
            except StopIteration:
                tracer.close(index)
                return
            except BaseException:
                tracer.close(index)
                if tracer.counting:
                    tracer.failures[layer] += 1
                raise
            tracer.close(index)
            if tracer.counting:
                tracer.calls[layer] += 1
            yield item

    return traced


# --- work counters: (work, call args, result) --------------------------------
# qraise is imported inside the counters, not at the top: run.py imports this
# module through bench_stats and must start without qraise on the path.

def _count_abduction_reduce(work, args, instance):
    from qraise.formulas import size

    work["formulas.nodes"] += sum(size(f) for f in instance.theory)


def _count_defaults_reduce(work, args, result):
    from qraise.formulas import size

    theory, _ = result
    work["formulas.nodes"] += sum(
        size(d.prerequisite) + size(d.justification) + size(d.consequence)
        for d in theory.defaults
    ) + sum(size(f) for f in theory.background)


def _count_planning_reduce(work, args, instance):
    from qraise.formulas import size

    work["formulas.nodes"] += sum(size(act.precondition) for act in instance.actions)


def _count_abduction_solve(work, args, result):
    instance = args[0]
    work["abduction.instance_vars"] += len(instance.all_variables())
    work["abduction.candidate_space"] += 1 << len(instance.hypotheses)


def _count_defaults_solve(work, args, result):
    from qraise.formulas import variables

    theory, goal = args
    work["defaults.instance_vars"] += len(theory.all_variables() | variables(goal))
    work["defaults.candidate_space"] += 1 << len(theory.defaults)
    work["defaults.extensions"] += result.extension_count


def _count_planning_solve(work, args, result):
    instance = args[0]
    found, plan = result
    work["planning.fluents"] += len(instance.fluents)
    work["planning.actions"] += len(instance.actions)
    work["planning.plan_steps"] += len(plan) if found else 0


def _count_truth_table(work, args, result):
    work["formulas.table_bits"] += 1 << args[2]


def _count_check(work, args, report):
    work["harness.cases"] += report.total


# (home module, function, span name, work counter)
ENTRY_POINTS = (
    ("qraise.harness", "check_equivalence", "harness.check", _count_check),
    ("qraise.harness", "generate_qbfs", "harness.generate", None),
    ("qraise.qbf", "qbf_valid", "qbf.valid", None),
    ("qraise.qbf", "qbf_valid_by_table", "qbf.valid_by_table", None),
    ("qraise.parsing", "parse_qbf", "parsing.parse_qbf", None),
    ("qraise.formulas", "truth_table", "formulas.truth_table", _count_truth_table),
    ("qraise.abduction", "reduce_qbf", "abduction.reduce", _count_abduction_reduce),
    ("qraise.abduction", "has_explanation", "abduction.solve", _count_abduction_solve),
    ("qraise.abduction", "enumerate_explanations", "abduction.solve", _count_abduction_solve),
    ("qraise.abduction", "serialize_instance", "abduction.serialize", None),
    ("qraise.abduction", "parse_instance", "abduction.parse", None),
    ("qraise.defaults", "reduce_qbf", "defaults.reduce", _count_defaults_reduce),
    ("qraise.defaults", "skeptically_entails", "defaults.solve", _count_defaults_solve),
    ("qraise.defaults", "serialize_theory", "defaults.serialize", None),
    ("qraise.defaults", "parse_theory", "defaults.parse", None),
    ("qraise.planning", "reduce_qbf", "planning.reduce", _count_planning_reduce),
    ("qraise.planning", "plan_exists", "planning.solve", _count_planning_solve),
    ("qraise.planning", "validate_plan", "planning.replay", None),
    ("qraise.planning", "serialize_instance", "planning.serialize", None),
    ("qraise.planning", "parse_instance", "planning.parse", None),
    ("qraise.cli", "main", "cli.main", None),
)

GENERATORS = {("qraise.harness", "generate_qbfs")}
# Rebinding these in their home module would trace their own recursion.
NOT_AT_HOME = {("qraise.formulas", "truth_table")}

MODULES = (
    "qraise",
    "qraise.formulas",
    "qraise.qbf",
    "qraise.parsing",
    "qraise.abduction",
    "qraise.defaults",
    "qraise.planning",
    "qraise.harness",
    "qraise.cli",
)

LAYERS = ("harness", "qbf", "parsing", "formulas", "abduction", "defaults", "planning", "cli")


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind every entry point wherever qraise holds it; returns the undo list."""
    modules = [importlib.import_module(m) for m in MODULES]
    saved: list[tuple[object, str, object]] = []
    for home, attr, span, counter in ENTRY_POINTS:
        original = getattr(importlib.import_module(home), attr)
        if (home, attr) in GENERATORS:
            traced = wrap_generator(tracer, span, original)
        else:
            traced = wrap(tracer, span, original, counter)
        bound = 0
        for module in modules:
            if (module.__name__, attr) in NOT_AT_HOME:
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    saved.append((module, name, value))
                    setattr(module, name, traced)
                    bound += 1
        if not bound:
            uninstall(saved)
            raise RuntimeError(f"entry point {home}.{attr} is not reachable for tracing")
    return saved


def uninstall(saved: Iterable[tuple[object, str, object]]) -> None:
    for module, name, value in reversed(list(saved)):
        setattr(module, name, value)
