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
records read. Existing inputs are never rewritten, so records stay tied to
the same files.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from qraise.cli import main
from qraise.parsing import serialize_qbf
from qraise.qbf import Qbf, qbf_valid_by_table, random_matrix, two_blocks

GOLDEN = Path(__file__).parent / "golden"

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
    # One default past DEFAULT_COUNT_CAP, and a body too wide for one table.
    "thirteen_defaults.dlt": "".join(f": v{i} / v{i}\n" for i in range(13)) + "query: v0\n",
    "wide_body.dlt": ": a & ({0}) / a & ({0})\nquery: a\n".format(
        " | ".join(f"v{i}" for i in range(23))
    ),
}


def _default_qbfs() -> dict[str, str]:
    """Seeded forall*-exists* QBFs, four valid and four invalid at each of
    1-5 universals, and one at 6 universals, past the default-count cap."""
    drawn = [(u, valid, draw) for u in range(1, 6) for valid in (True, False) for draw in range(4)]
    made = {}
    for universal, valid, draw in drawn + [(6, False, 0)]:
        rng = random.Random(f"default {universal} {valid} {draw}")
        while True:
            existential = rng.randint(1, 6)
            names = [f"x{i + 1}" for i in range(universal)]
            names += [f"y{i + 1}" for i in range(existential)]
            q = Qbf(two_blocks(names, universal, "ae"), random_matrix(rng, names, 4))
            if qbf_valid_by_table(q) == valid:
                break
        label = "valid" if valid else "invalid"
        made[f"u{universal}_{label}_{draw}.qbf"] = serialize_qbf(q)
    return made


def _default_commands(inputs: Path, write: bool) -> list[tuple[str, list[str]]]:
    """The slice's commands as (id, argv); with ``write``, missing inputs are made first."""
    if write:
        for name, text in {**_default_qbfs(), **DEFAULT_THEORIES}.items():
            if not (inputs / name).exists():
                (inputs / name).write_text(text, encoding="utf-8")
    commands = []
    for path in sorted(inputs.glob("*.qbf")):
        stem = path.stem
        reduced = inputs / f"{stem}.dlt"
        if write and not reduced.exists():
            assert _run(["reduce", "--target", "default", str(path), "-o", str(reduced)])[0] == 0
        qbf, dlt = f"{{in}}/{path.name}", f"{{in}}/{reduced.name}"
        commands += [
            (f"validate-{stem}", ["validate", qbf]),
            (f"reduce-{stem}", ["reduce", "--target", "default", qbf, "-o", "{out}"]),
            (f"solve-{stem}", ["solve", "--target", "default", dlt]),
        ]
    to_stdout = ["reduce", "--target", "default", "{in}/u3_valid_0.qbf"]
    commands.append(("reduce-u3_valid_0-to-stdout", to_stdout))
    for name in sorted(DEFAULT_THEORIES):
        commands.append((f"solve-{name}", ["solve", "--target", "default", f"{{in}}/{name}"]))
    return commands


SLICES = {"default": _default_commands}


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
        written = output.read_text(encoding="utf-8") if "{out}" in argv else None
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
