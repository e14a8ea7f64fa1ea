"""Golden corpus: recorded CLI runs that must replay byte for byte.

Each slice is a directory under ``tests/golden/`` holding the inputs in
``inputs/`` and one record per command in ``records.json``: the argv, the
exit status, stdout, stderr and the text of the ``-o`` file, if any. In an
argv, ``{in}`` stands for the slice's ``inputs`` directory and ``{out}``
for a fresh output file. The test replays every record through
``cli.main`` in-process, so a change that alters any output fails here
unless its records are regenerated on purpose.

Run this file as a script to compare, and with ``--write`` to rewrite the
records::

    PYTHONPATH=src python tests/test_golden.py [--write]

Writing also creates any input that is missing: the seeded QBFs, drawn
with ``qbf.random_matrix``, and their reductions, which the ``solve``
records read, the planning slice's 20-variable alternating reductions,
which are only solved, and the check and growth slice's two ``validate``
inputs. Existing inputs are never rewritten,
so records stay tied to the same files.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from functools import partial
from pathlib import Path
from typing import Callable
from unittest import mock

import pytest

from qraise import parsing, planning, qbf
from qraise.cli import main
from qraise.harness import TARGETS
from qraise.parsing import serialize_qbf
from qraise.qbf import QBF_VAR_CAP, Prefix, Qbf, Quantifier, qbf_valid_by_table, random_matrix
from qraise.qbf import random_prefix, two_blocks

GOLDEN = Path(__file__).parent / "golden"

# --- how a slice is made ------------------------------------------------------

def _seeded_qbfs(
    target: str, draw_prefix: Callable[[random.Random, int], Prefix], letter: str,
    outer: range, past_cap: int,
) -> dict[str, str]:
    """Seeded QBFs, four valid and four invalid for each size in ``outer``,
    and one invalid one of size ``past_cap``. ``draw_prefix(rng, size)``
    draws each prefix."""
    drawn = [(n, valid, draw) for n in outer for valid in (True, False) for draw in range(4)]
    made = {}
    for count, valid, draw in drawn + [(past_cap, False, 0)]:
        rng = random.Random(f"{target} {count} {valid} {draw}")
        while True:
            prefix = draw_prefix(rng, count)
            q = Qbf(prefix, random_matrix(rng, [name for _, name in prefix], 4))
            if qbf_valid_by_table(q) == valid:
                break
        label = "valid" if valid else "invalid"
        made[f"{letter}{count}_{label}_{draw}.qbf"] = serialize_qbf(q)
    return made


def _two_blocks(shape: str, inner_max: int, rng: random.Random, count: int) -> Prefix:
    """``count`` outer variables of ``shape`` and 1 to ``inner_max`` inner ones."""
    inner = rng.randint(1, inner_max)
    names = [f"x{i + 1}" for i in range(count)] + [f"y{i + 1}" for i in range(inner)]
    return two_blocks(names, count, shape)


def _slice_commands(
    target: str, suffix: str, qbfs: Callable[[], dict[str, str]], instances: dict[str, str],
    to_stdout: str, inputs: Path, write: bool,
) -> list[tuple[str, list[str]]]:
    """A slice's commands as (id, argv): ``validate``, ``reduce -o`` and
    ``solve`` on each seeded QBF, one ``reduce`` of ``to_stdout`` to stdout,
    then ``solve`` on each hand-written instance. With ``write``, missing
    inputs are made first."""
    if write:
        for name, text in {**qbfs(), **instances}.items():
            if not (inputs / name).exists():
                (inputs / name).write_text(text, encoding="utf-8")
    commands = []
    for path in sorted(inputs.glob("*.qbf")):
        stem = path.stem
        reduced = inputs / f"{stem}.{suffix}"
        if write and not reduced.exists():
            assert _run(["reduce", "--target", target, str(path), "-o", str(reduced)])[0] == 0
        qbf, instance = f"{{in}}/{path.name}", f"{{in}}/{reduced.name}"
        commands += [
            (f"validate-{stem}", ["validate", qbf]),
            (f"reduce-{stem}", ["reduce", "--target", target, qbf, "-o", "{out}"]),
            (f"solve-{stem}", ["solve", "--target", target, instance]),
        ]
    commands.append(
        (f"reduce-{to_stdout}-to-stdout", ["reduce", "--target", target, f"{{in}}/{to_stdout}.qbf"])
    )
    for name in sorted(instances):
        commands.append((f"solve-{name}", ["solve", "--target", target, f"{{in}}/{name}"]))
    return commands


# --- the default-logic slice ------------------------------------------------

# Hand-written theories: name -> text.
DEFAULT_THEORIES = {
    # Non-normal defaults, one firing only after another has concluded.
    "non_normal.dlt": ": b / a\na : !c / d\n: c / c\nquery: d\n",
    "non_normal_chain.dlt": ": x / y\ny : z / z & w\nw : !x / q\nquery: z\n",
    # Background formulas the defaults build on.
    "background.dlt": "W: x | y\nW: !x | z\n: !x / !x\n: x / x\nx : z / q\nquery: z\n",
    "inconsistent_background.dlt": "W: x & !x\n: a / a\nquery: a\n",
    # Concluding a defeats its own justification: no extension, vacuously yes.
    "no_extension.dlt": ": !a / a\nquery: a\n",
    "two_extensions.dlt": ": x / x\n: !x / !x\nx : q / q\nquery: q\n",
    "empty.dlt": "query: a\n",
    # Parse and contract errors.
    "bad_line.dlt": "a b c\nquery: a\n",
    "bad_formula.dlt": ": a & / a\nquery: a\n",
    "no_query.dlt": ": a / a\n",
    "second_query.dlt": ": x / x\nquery: x\nquery: y\n",
    # One default past DEFAULT_COUNT_CAP, and a body too wide for one table.
    "thirteen_defaults.dlt": "".join(f": v{i} / v{i}\n" for i in range(13)) + "query: v0\n",
    "wide_body.dlt": ": a & ({0}) / a & ({0})\nquery: a\n".format(
        " | ".join(f"v{i}" for i in range(23))
    ),
}


# forall*-exists* QBFs at 1-5 universals, and one at 6, past the default-count cap.
_default_commands = partial(
    _slice_commands, "default", "dlt",
    partial(_seeded_qbfs, "default", partial(_two_blocks, "ae", 6), "u", range(1, 6), 6),
    DEFAULT_THEORIES, "u3_valid_0",
)

# --- the abduction slice ------------------------------------------------------

# Hand-written instances: name -> text.
ABDUCTION_INSTANCES = {
    # The least explanation takes two hypotheses; a third would refute m.
    "two_hypotheses.abd": "H: h1 h2 h3\nM: m\nT: h1 & h2 -> m\nT: h3 -> !m\n",
    # No explanation: a set that entails m contradicts the theory, or the
    # theory contradicts itself.
    "no_explanation.abd": "H: h1 h2\nM: m\nT: h1 -> m\nT: !h1\nT: h2 -> !m\n",
    "inconsistent_theory.abd": "H: h\nM: m\nT: h -> m\nT: p & !p\n",
    # Parse errors.
    "bad_h_name.abd": "H: h1 2h\nM: m\nT: h1 -> m\n",
    "no_m_line.abd": "H: h\nT: h -> m\n",
    # 14 hypotheses (the cap) and 9 manifestations: 23 kept variables.
    "wide_kept_set.abd": "H: {}\nM: {}\nT: {}\n".format(
        " ".join(f"h{i}" for i in range(14)),
        " ".join(f"m{i}" for i in range(9)),
        " | ".join(f"h{i}" for i in range(14)),
    ),
}

# exists*-forall* QBFs at 1-7 existentials, and one at 8, past HYPOTHESIS_CAP.
_abduction_commands = partial(
    _slice_commands, "abduction", "abd",
    partial(_seeded_qbfs, "abduction", partial(_two_blocks, "ea", 3), "e", range(1, 8), 8),
    ABDUCTION_INSTANCES, "e3_valid_0",
)


# --- the planning slice -------------------------------------------------------

# Hand-written instances: name -> text.
PLANNING_INSTANCES = {
    # The goal holds at the start: the empty plan.
    "goal_at_start.plan": "fluents: g x\ninit: g=1 x=0\ngoal: g\naction set-x: true => x\n",
    # Two actions that can never fire, next to a two-step plan.
    "never_fires.plan": (
        "fluents: a x\ninit: a=0 x=0\ngoal: a\n"
        "action contradiction: x & !x => a\naction constant: true & false => a\n"
        "action set-x: !x => x\naction reach: x | false => a\n"
    ),
    "no_plan.plan": "fluents: a x\ninit: a=0 x=0\ngoal: a\naction never: x & !x => a\n",
    # A contract error.
    "writes_twice.plan": "fluents: a\ninit: a=0\ngoal: a\naction m: true => a !a\n",
    # Parse errors, and names that are not fluents.
    "bad_init.plan": "fluents: a\ninit: a=2\ngoal: a\naction m: true => a\n",
    "missing_arrow.plan": "fluents: a\ninit: a=0\ngoal: a\naction m: true a\n",
    "unknown_init.plan": "fluents: a b\ninit: a=0 c=1\ngoal: a\naction m: b => a\n",
    "unknown_goal.plan": "fluents: a b\ninit: a=0 b=0\ngoal: x\naction m: b => a\n",
    # Repeated items: a contradictory init: entry, second fluents: and goal:
    # lines, a fluent declared twice, and two actions of one name.
    "duplicate_actions.plan": (
        "fluents: a\ninit: a=0\ngoal: a\naction m: true => a\naction m: !a => a\n"
    ),
    "duplicate_fluents.plan": "fluents: a a\ninit: a=0\ngoal: a\naction m: true => a\n",
    "contradictory_init.plan": "fluents: a m\ninit: a=1 m=0 a=0\ngoal: a\naction m: m => a\n",
    "second_fluents.plan": (
        "fluents: a\ninit: a=0\ngoal: a\nfluents: a b\naction m: b => a\n"
    ),
    "second_goal.plan": "fluents: a b\ninit: a=0 b=0\ngoal: b\n  goal: a\naction m: true => a\n",
    # Action headers that are not exactly one name.
    "unnamed_action.plan": "fluents: a\ninit: a=0\ngoal: a\naction : true => a\n",
    "two_word_action.plan": "fluents: a\ninit: a=0\ngoal: a\naction foo bar: true => a\n",
}


def _any_prefix(rng: random.Random, count: int) -> Prefix:
    """A prefix of any shape on ``count`` variables. Its reduction has
    2 * count + 1 fluents plus one per universal, so a prefix is redrawn
    until that is at most 18 at up to 7 variables and more than 18 past 7."""
    names = [f"x{i + 1}" for i in range(count)]
    while True:
        prefix = random_prefix(rng, names, "any")
        fluents = 2 * count + 1 + sum(quant is Quantifier.FORALL for quant, _ in prefix)
        if (fluents <= 18) == (count <= 7):
            return prefix


def _alternating_reduction(count: int, valid: bool) -> str:
    """The reduction of a seeded ``count``-variable QBF, exists first and
    alternating, of the wanted validity. The table oracle decides it with
    ``QBF_VAR_CAP`` lifted to ``count``."""
    names = [f"x{i + 1}" for i in range(count)]
    quants = (Quantifier.EXISTS, Quantifier.FORALL)
    prefix = tuple((quants[i % 2], name) for i, name in enumerate(names))
    rng = random.Random(f"planning alternating {count} {valid}")
    with mock.patch.object(qbf, "QBF_VAR_CAP", max(QBF_VAR_CAP, count)):
        while True:
            q = Qbf(prefix, random_matrix(rng, names, 5))
            if qbf_valid_by_table(q) == valid:
                return planning.serialize_instance(planning.reduce_qbf(q))


# 20-variable alternating reductions (51 fluents), by validity: each is only solved.
ALTERNATING = {"a20_valid.plan": True, "a20_invalid.plan": False}


def _planning_commands(inputs: Path, write: bool) -> list[tuple[str, list[str]]]:
    """QBFs of any prefix at 1-7 variables, and one at 8, past 18 fluents;
    the hand-written instances; then ``solve`` on each ``ALTERNATING``
    reduction, written with ``write`` when missing."""
    commands = _slice_commands(
        "planning", "plan", partial(_seeded_qbfs, "planning", _any_prefix, "n", range(1, 8), 8),
        PLANNING_INSTANCES, "n3_valid_0", inputs, write,
    )
    for name, valid in ALTERNATING.items():
        path = inputs / name
        if write and not path.exists():
            path.write_text(_alternating_reduction(20, valid), encoding="utf-8")
        commands.append((f"solve-{name}", ["solve", "--target", "planning", f"{{in}}/{name}"]))
    return commands


# --- the check and growth slice ----------------------------------------------

def _check_growth_commands(inputs: Path, write: bool) -> list[tuple[str, list[str]]]:
    """``check`` and ``growth`` on each target, their argument errors, and
    ``validate`` on one QBF past ``QBF_VAR_CAP`` and on one that is not
    UTF-8, both written with ``write``."""
    wide = inputs / "wide.qbf"
    if write and not wide.exists():
        names = [f"v{i}" for i in range(QBF_VAR_CAP + 1)]
        text = f"forall {' '.join(names)};\n: " + " | ".join(f"{v} | !{v}" for v in names) + "\n"
        wide.write_text(text, encoding="utf-8")
    not_utf8 = inputs / "not_utf8.qbf"
    if write and not not_utf8.exists():
        not_utf8.write_bytes(b"exists x;\n: x \xff\n")
    commands = []
    for target, module in TARGETS.items():
        check = ["check", "--target", target]
        commands += [
            (f"check-{target}-random", check + ["--pattern", module.SHAPE, "--vars", "4",
                                                "--seed", "3", "--count", "40"]),
            (f"check-{target}-exhaustive", check + ["--exhaustive", "--vars", "1", "--depth", "2",
                                                    "--per-case"]),
            (f"growth-{target}", ["growth", "--target", target, "--raises", "4"]),
        ]
    commands += [
        ("check-default-past-the-count-cap",
         ["check", "--target", "default", "--pattern", "ae", "--vars", "7", "--seed", "1",
          "--count", "6"]),
        ("check-abduction-wrong-pattern", ["check", "--target", "abduction", "--pattern", "ae"]),
        ("check-without-mode", ["check", "--target", "planning"]),
        ("check-both-modes", ["check", "--target", "planning", "--exhaustive", "--pattern", "any"]),
        ("check-count-negative", ["check", "--target", "planning", "--pattern", "any",
                                  "--count", "-3"]),
        ("check-count-zero", ["check", "--target", "planning", "--pattern", "any", "--count", "0"]),
        ("check-vars-negative", ["check", "--target", "default", "--pattern", "ae",
                                 "--vars", "-1", "--count", "3"]),
        ("check-depth-negative", ["check", "--target", "abduction", "--exhaustive",
                                  "--depth", "-1"]),
        ("growth-raises-negative", ["growth", "--target", "planning", "--raises", "-2"]),
        ("growth-raises-zero", ["growth", "--target", "default", "--raises", "0"]),
        ("validate-past-the-prefix-cap", ["validate", "{in}/wide.qbf"]),
        ("validate-not-utf8", ["validate", "{in}/not_utf8.qbf"]),
    ]
    return commands


# --- the deep-input slice -----------------------------------------------------

# The three deep inputs of test_cli.TestDeepInput: name -> QBF text.
DEEP_QBFS = {
    "conjunction.qbf": "exists x; : " + " & ".join(["x"] * 5000),
    "negation.qbf": "exists x; : " + "!" * 5000 + "x",
    "parentheses.qbf": "exists x; : " + "(" * 3000 + "x" + ")" * 3000,
}


def _deep_commands(inputs: Path, write: bool) -> list[tuple[str, list[str]]]:
    """``validate`` on each deep input, ``reduce -o`` to each target, and
    ``solve`` on each reduction that succeeds. With ``write``, missing
    inputs are made first, and a reduction that fails leaves no input."""
    commands = []
    for name, text in sorted(DEEP_QBFS.items()):
        source = inputs / name
        if write and not source.exists():
            source.write_text(text, encoding="utf-8")
        stem, qbf = source.stem, f"{{in}}/{name}"
        commands.append((f"validate-{stem}", ["validate", qbf]))
        for target, module in TARGETS.items():
            reduced = inputs / f"{stem}.{module.SUFFIX}"
            if write and not reduced.exists():
                _run(["reduce", "--target", target, str(source), "-o", str(reduced)])
            reduce = ["reduce", "--target", target, qbf, "-o", "{out}"]
            commands.append((f"reduce-{stem}-{target}", reduce))
            if reduced.exists():
                solve = ["solve", "--target", target, f"{{in}}/{reduced.name}"]
                commands.append((f"solve-{stem}-{target}", solve))
    return commands


SLICES = {
    "default": _default_commands,
    "abduction": _abduction_commands,
    "planning": _planning_commands,
    "check_growth": _check_growth_commands,
    "deep": _deep_commands,
}


# --- running and comparing ----------------------------------------------------

def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_record(argv: list[str], inputs: Path) -> dict:
    """Run one command and return its record (without the id)."""
    with tempfile.TemporaryDirectory() as scratch:
        output = Path(scratch) / "out"
        actual = [arg.replace("{in}", str(inputs)).replace("{out}", str(output)) for arg in argv]
        code, out, err = _run(actual)
        written = output.read_text(encoding="utf-8") if output.exists() else None
    return {"argv": argv, "status": code, "stdout": out, "stderr": err, "output": written}


def _records(name: str) -> list[dict]:
    path = GOLDEN / name / "records.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else []


CASES = [
    pytest.param(name, record, id=f"{name}/{record['id']}")
    for name in SLICES
    for record in _records(name)
]


@pytest.mark.parametrize("name,record", CASES)
def test_record_replays(name, record):
    got = run_record(record["argv"], GOLDEN / name / "inputs")
    assert {"id": record["id"], **got} == record


def test_every_slice_command_is_recorded():
    for name, commands in SLICES.items():
        recorded = [(r["id"], r["argv"]) for r in _records(name)]
        assert recorded == commands(GOLDEN / name / "inputs", write=False)


def test_redundant_parentheses_change_every_target_slice(monkeypatch):
    """The corpus catches a change to the text it records: once
    ``serialize_formula`` parenthesizes every connective under another,
    ``reduce`` records of each target slice replay differently."""
    for node in list(parsing._STRENGTH):
        monkeypatch.setitem(parsing._STRENGTH, node, 0)
    differ = set()
    for name in TARGETS:
        for record in _records(name):
            if record["argv"][0] == "reduce":
                got = run_record(record["argv"], GOLDEN / name / "inputs")
                if {"id": record["id"], **got} != record:
                    differ.add(name)
                    break
    assert differ == set(TARGETS)


def regenerate(write: bool) -> int:
    """Compare every slice with its records, or rewrite them; returns how many differ."""
    differ = 0
    for name, commands in SLICES.items():
        inputs = GOLDEN / name / "inputs"
        if write:
            inputs.mkdir(parents=True, exist_ok=True)
        old = {r["id"]: r for r in _records(name)}
        records = [{"id": key, **run_record(argv, inputs)} for key, argv in commands(inputs, write)]
        for record in records:
            if old.get(record["id"]) != record:
                differ += 1
                print(f"{name}: {record['id']}: {'new' if record['id'] not in old else 'changed'}")
        if write:
            text = json.dumps(records, indent=1) + "\n"
            (GOLDEN / name / "records.json").write_text(text, encoding="utf-8")
    return differ


if __name__ == "__main__":
    write = sys.argv[1:] == ["--write"]
    if sys.argv[1:] not in ([], ["--write"]):
        raise SystemExit("usage: test_golden.py [--write]")
    differ = regenerate(write)
    print(f"{differ} records {'rewritten' if write else 'differ'}")
    raise SystemExit(1 if differ and not write else 0)
