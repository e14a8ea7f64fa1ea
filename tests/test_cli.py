"""Command-line contract: exit codes, output prefixes, file round trips."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qraise
from qraise import cli, harness, planning
from qraise.cli import main
from qraise.errors import ContractError, EvaluationError, ParseError, QraiseError
from qraise.errors import ResourceLimitError, UnsupportedShapeError, check_cap
from qraise.qbf import QBF_VAR_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def qbf_file(tmp_path):
    def write(text, name="input.qbf"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    return write


class TestValidate:
    def test_valid_exits_zero(self, capsys, qbf_file):
        code, out, _ = run_cli(capsys, "validate", str(qbf_file(": true")))
        assert code == 0 and out.strip() == "valid"

    def test_invalid_exits_one(self, capsys, qbf_file):
        code, out, _ = run_cli(capsys, "validate", str(qbf_file("forall y; : y")))
        assert code == 1 and out.strip() == "invalid"

    def test_parse_error_exits_two(self, capsys, qbf_file):
        code, _, err = run_cli(capsys, "validate", str(qbf_file(": tru(")))
        assert code == 2
        assert err.startswith("error[parse]:")

    def test_free_variable_error(self, capsys, qbf_file):
        code, _, err = run_cli(capsys, "validate", str(qbf_file("forall y; : x")))
        assert code == 2 and "free variable x" in err

    @staticmethod
    def wide(n):
        """``forall v1 ... vn: v1 | !v1 | ... | vn | !vn``."""
        names = [f"v{i}" for i in range(1, n + 1)]
        return f"forall {' '.join(names)}; : " + " | ".join(f"{v} | !{v}" for v in names)

    def test_prefix_at_the_cap_decides(self, capsys, qbf_file):
        code, out, err = run_cli(capsys, "validate", str(qbf_file(self.wide(QBF_VAR_CAP))))
        assert (code, out, err) == (0, "valid\n", "")

    def test_prefix_past_the_cap_exits_three(self, capsys, qbf_file):
        code, out, err = run_cli(capsys, "validate", str(qbf_file(self.wide(QBF_VAR_CAP + 1))))
        assert code == 3 and out == ""
        assert err.startswith("error[resource]:") and err.count("\n") == 1


class TestReduceSolve:
    @pytest.mark.parametrize(
        "target,text,expected",
        [
            ("abduction", "exists x; forall y; : x | y", 0),
            ("abduction", "forall y; : y", 1),
            ("default", "forall x; exists y; : x <-> y", 0),
            ("default", "forall x; exists y; : x & y", 1),
            ("planning", "forall x; exists y; : x <-> y", 0),
            ("planning", "exists x; forall y; : x <-> y", 1),
        ],
    )
    def test_solve_matches_validity(self, capsys, tmp_path, qbf_file, target, text, expected):
        source = qbf_file(text)
        out_file = tmp_path / "instance.txt"
        code, _, _ = run_cli(capsys, "reduce", "--target", target, str(source), "-o", str(out_file))
        assert code == 0
        code, out, _ = run_cli(capsys, "solve", "--target", target, str(out_file))
        assert code == expected
        assert out.startswith("yes" if expected == 0 else "no")

    def test_reduce_to_stdout(self, capsys, qbf_file):
        code, out, _ = run_cli(capsys, "reduce", "--target", "abduction", str(qbf_file("forall y; : y")))
        assert code == 0
        assert out.startswith("H:")

    @pytest.mark.parametrize("old", ["", "H: stale\n" * 2000, "H:"])
    def test_reduce_overwrites_to_the_new_length(self, capsys, tmp_path, qbf_file, old):
        source = str(qbf_file("exists x; forall y; : x | y"))
        _, expected, _ = run_cli(capsys, "reduce", "--target", "abduction", source)
        out_file = tmp_path / "instance.abd"
        out_file.write_text(old, encoding="utf-8")
        code, _, _ = run_cli(capsys, "reduce", "--target", "abduction", source, "-o", str(out_file))
        assert code == 0
        assert out_file.read_text(encoding="utf-8") == expected

    def test_reduce_to_a_device(self, capsys, qbf_file):
        source = str(qbf_file("forall y; : y"))
        code, out, err = run_cli(capsys, "reduce", "--target", "abduction", source, "-o", os.devnull)
        assert (code, out, err) == (0, "", "")

    def test_reduce_to_a_directory_exits_two(self, capsys, tmp_path, qbf_file):
        source = str(qbf_file("forall y; : y"))
        code, _, err = run_cli(capsys, "reduce", "--target", "abduction", source, "-o", str(tmp_path))
        assert code == 2
        assert err.startswith("error[io]:")

    def test_reduce_wrong_shape_exits_two(self, capsys, qbf_file):
        code, _, err = run_cli(
            capsys, "reduce", "--target", "abduction", str(qbf_file("forall y; exists x; : x & y"))
        )
        assert code == 2
        assert err.startswith("error[contract]:")

    def test_solve_resource_cap_exits_three(self, capsys, monkeypatch, tmp_path):
        # four one-shot setters reach 16 states, and the finish action,
        # which needs the goal it sets, never fires
        monkeypatch.setattr(planning, "STATE_CAP", 8)
        fluents = [f"f{i}" for i in range(4)]
        lines = [
            "fluents: " + " ".join(fluents) + " g",
            "init: " + " ".join(f"{f}=0" for f in fluents),
            "goal: g",
            *(f"action set-{f}: !{f} => {f}" for f in fluents),
            "action finish: " + " & ".join(fluents) + " & g => g",
        ]
        path = tmp_path / "big.plan"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", "--target", "planning", str(path))
        assert (code, out, err) == (3, "", "error[resource]: 9 states exceed STATE_CAP=8\n")

    def test_solve_names_unknown_initial_fluents(self, capsys, tmp_path):
        path = tmp_path / "stray.plan"
        path.write_text("fluents: a b\ninit: a=0 c=1\ngoal: a\naction m: b => a\n", encoding="utf-8")
        assert run_cli(capsys, "solve", "--target", "planning", str(path)) == (
            2,
            "",
            "error[parse]: init: names unknown fluent 'c' (line 2, column 11)\n",
        )

    @pytest.mark.parametrize("target", ["abduction", "default", "planning"])
    def test_input_that_is_not_utf8_is_one_parse_line(self, capsys, tmp_path, qbf_file, target):
        # The column counts characters, so the three-byte "∧" is one.
        source = tmp_path / "bad.qbf"
        source.write_bytes("exists x;\n: x ∧ ".encode() + b"\xff\n")
        out_file = tmp_path / "out"
        code, out, err = run_cli(capsys, "reduce", "--target", target, str(source), "-o", str(out_file))
        assert (code, out, err) == (2, "", "error[parse]: byte 0xff is not UTF-8 (line 2, column 7)\n")
        assert not out_file.exists()
        # A well-formed instance with a bad byte after a CRLF line end.
        _, text, _ = run_cli(capsys, "reduce", "--target", target, str(qbf_file("forall y; : y")))
        head, rest = text.split("\n", 1)
        instance = tmp_path / "bad.instance"
        instance.write_bytes(f"{head}\r\né ".encode() + b"\xc3(" + rest.encode())
        assert run_cli(capsys, "solve", "--target", target, str(instance)) == (
            2,
            "",
            "error[parse]: byte 0xc3 is not UTF-8 (line 2, column 3)\n",
        )

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "absent.qbf"))
        assert code == 2
        assert err.startswith("error[io]:")


# Instance files with an error, and the position `solve` must report: the
# file's line and column, not the place within the formula's own text.
PLAN_HEAD = "fluents: a b\ninit: a=0 b=0\ngoal: a\n"
POSITIONS = [
    (
        "abduction",
        "H: h\nM: a\nT: h -> a\nT: x & & a\n",
        "expected a formula, found '&' (line 4, column 8)",
    ),
    (
        "planning",
        PLAN_HEAD + "action apply-matrix: b & ) => a\n",
        "expected a formula, found ')' (line 4, column 26)",
    ),
    ("default", "true : y / y\n: y / (y\nquery: y\n", "expected ')', found 'end of input' (line 2, column 9)"),
    # An indent shifts the column by its width.
    (
        "abduction",
        "H: h\nM: a\nT: h -> a\n    T: x & & a\n",
        "expected a formula, found '&' (line 4, column 12)",
    ),
    # Errors about a whole line point at its first character, or at the bad entry.
    ("abduction", "H: h\n  M: a\n\n   T a\n", "expected an 'H:', 'M:', or 'T:' line (line 4, column 4)"),
    ("planning", "fluents: a b\ninit: a=0  b=2\n", "bad init entry 'b=2' (line 2, column 12)"),
    ("planning", PLAN_HEAD + "  action apply-matrix b => a\n", "action line needs a ':' (line 4, column 3)"),
    # Names are checked where they are read, against formulas.check_name's pattern.
    ("default", ": y / y\nquery:\n", "expected a variable name (line 2, column 7)"),
    ("default", ": y / y\nquery: x y\n", "expected one variable name, found 'y' (line 2, column 10)"),
    ("planning", PLAN_HEAD + "action s: b => !\n", "expected a variable name (line 4, column 17)"),
    ("planning", "fluents: a b\ninit: a=0 b=0\ngoal:\n", "expected a variable name (line 3, column 6)"),
    ("planning", "fluents: a b!\n", "invalid variable name 'b!' (line 1, column 12)"),
    ("planning", "fluents: a b\ninit: a=0 x!=1\n", "bad init entry 'x!=1' (line 2, column 11)"),
    ("abduction", "H: h h!\nM: a\n", "invalid variable name 'h!' (line 1, column 6)"),
    # init: and goal: names are checked against fluents:, the first unknown one in the file.
    ("planning", "fluents: a b\ninit: a=0 c=1\ngoal: a\naction m: b => a\n",
     "init: names unknown fluent 'c' (line 2, column 11)"),
    ("planning", "fluents: a b\ninit: a=0  d=0 c=1\ngoal: a\naction m: b => a\n",
     "init: names unknown fluent 'd' (line 2, column 12)"),
    ("planning", "goal: x\nfluents: a b\ninit: c=1\naction m: b => a\n",
     "goal: names unknown fluent 'x' (line 1, column 7)"),
]


@pytest.mark.parametrize("target,text,message", POSITIONS)
def test_solve_reports_the_position_in_the_file(capsys, tmp_path, target, text, message):
    path = tmp_path / "instance.txt"
    path.write_text(text, encoding="utf-8")
    assert run_cli(capsys, "solve", "--target", target, str(path)) == (
        2,
        "",
        f"error[parse]: {message}\n",
    )


class TestInternalErrors:
    def test_deep_nesting_is_one_error_line(self, capsys, qbf_file):
        deep = qbf_file("exists x; : " + "!" * 5000 + "x")
        code, out, err = run_cli(capsys, "validate", str(deep))
        assert code == 2 and out == ""
        assert err.startswith("error[internal]:") and err.count("\n") == 1

    def test_plan_replay_failure_is_one_error_line(self, capsys, tmp_path, qbf_file, monkeypatch):
        instance = tmp_path / "instance.plan"
        source = qbf_file("exists x; : x")
        run_cli(capsys, "reduce", "--target", "planning", str(source), "-o", str(instance))
        monkeypatch.setattr(planning, "_replay", lambda instance, plan: False)
        code, out, err = run_cli(capsys, "solve", "--target", "planning", str(instance))
        assert code == 2 and out == ""
        assert err.startswith("error[internal]: plan failed replay") and err.count("\n") == 1


class TestErrorContract:
    """Every package error is one ``error[<code>]`` line and its class's exit status."""

    @pytest.mark.parametrize(
        "error,line,status",
        [
            (QraiseError("broken"), "error[internal]: broken", 2),
            (EvaluationError("unbound"), "error[internal]: unbound", 2),
            (ParseError("bad", 2, 3), "error[parse]: bad (line 2, column 3)", 2),
            (ContractError("no"), "error[contract]: no", 2),
            (UnsupportedShapeError("shape"), "error[contract]: shape", 2),
            (ResourceLimitError("big"), "error[resource]: big", 3),
        ],
    )
    def test_each_class_has_its_code_and_status(self, capsys, monkeypatch, error, line, status):
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "_cmd_growth", fail)
        assert run_cli(capsys, "growth", "--target", "planning") == (status, "", f"{line}\n")

    def test_check_cap_names_the_constant(self):
        check_cap(5, "widgets", "WIDGET_CAP", 5)
        with pytest.raises(ResourceLimitError, match="^6 widgets exceed WIDGET_CAP=5$"):
            check_cap(6, "widgets", "WIDGET_CAP", 5)

    def test_readme_cap_table_matches_the_constants(self):
        """README's cap table has one row per ``*_CAP`` constant of the
        package, in that row its value, written ``2^k = value`` for a power
        of two or as the bare number."""
        caps = {}
        for info in pkgutil.iter_modules(qraise.__path__):
            module = importlib.import_module(f"qraise.{info.name}")
            caps.update(
                (f"{info.name}.{name}", value)
                for name, value in vars(module).items()
                if name.endswith("_CAP")
            )
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        rows = dict(re.findall(r"^\| `(\w+\.\w+_CAP)` \| ([^|]*?) \|", readme, re.MULTILINE))
        assert len(caps) == 5 and rows.keys() == caps.keys()
        for name, value in caps.items():
            power = value.bit_length() - 1
            power_cell = f"2^{power} = {value}" if value == 1 << power else None
            assert rows[name] in (str(value), power_cell), name

    def test_oracle_disagreement_is_one_internal_line(self, capsys, monkeypatch):
        table = harness.qbf_valid_by_table
        monkeypatch.setattr(harness, "qbf_valid_by_table", lambda q: not table(q))
        code, out, err = run_cli(
            capsys, "check", "--target", "planning", "--pattern", "any", "--count", "3"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error[internal]: validity oracles disagree on ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["check", "--target", "planning", "--pattern", "any", "--count", "-3"],
             "--count must be at least 1, got -3"),
            (["check", "--target", "planning", "--pattern", "any", "--count", "0"],
             "--count must be at least 1, got 0"),
            (["check", "--target", "default", "--pattern", "ae", "--vars", "-1"],
             "--vars must be at least 0, got -1"),
            (["check", "--target", "abduction", "--exhaustive", "--depth", "-2"],
             "--depth must be at least 0, got -2"),
            (["growth", "--target", "default", "--raises", "-2"],
             "--raises must be at least 0, got -2"),
        ],
    )
    def test_vacuous_runs_are_contract_errors(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error[contract]: {message}\n")

    def test_exhaustive_mode_ignores_the_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--target", "planning", "--exhaustive", "--vars", "1",
            "--depth", "0", "--count", "0",
        )
        assert code == 0 and "verdict=PASS" in out


class TestDeepInput:
    """The three deep inputs decide like ``exists x; : x`` or give one
    ``error[internal]`` line: the parser and serializer take any depth, but
    the node methods behind ``formulas.evaluate_reading`` (plan replay and
    the QBF oracle of ``validate``) and ``truth_table``, ``substitute`` and
    the nodes' own ``__hash__``/``__eq__`` still recurse."""

    DEEP = {
        "conjunction": "exists x; : " + " & ".join(["x"] * 5000),
        "negation": "exists x; : " + "!" * 5000 + "x",
        "parentheses": "exists x; : " + "(" * 3000 + "x" + ")" * 3000,
    }

    @staticmethod
    def outcomes(capsys, tmp_path, source):
        """(command, exit code, stdout, stderr) of validate, and of reduce
        and then solve on the reduced file for every target."""
        results = [("validate",) + run_cli(capsys, "validate", str(source))]
        for target in ("abduction", "default", "planning"):
            instance = tmp_path / f"{source.stem}.{target}"
            reduced = run_cli(capsys, "reduce", "--target", target, str(source), "-o", str(instance))
            results.append((f"reduce {target}",) + reduced)
            if reduced[0] == 0:
                solved = run_cli(capsys, "solve", "--target", target, str(instance))
                results.append((f"solve {target}",) + solved)
        return results

    def test_three_thousand_parentheses_validate(self, capsys, qbf_file):
        code, out, err = run_cli(capsys, "validate", str(qbf_file(self.DEEP["parentheses"])))
        assert (code, out, err) == (0, "valid\n", "")

    @pytest.mark.parametrize("shape", sorted(DEEP))
    def test_decides_as_shallow_or_one_internal_error(self, capsys, tmp_path, qbf_file, shape):
        shallow = {
            command: (code, out.split()[:1])
            for command, code, out, _ in self.outcomes(capsys, tmp_path, qbf_file("exists x; : x", "shallow.qbf"))
        }
        assert all(code == 0 for code, _ in shallow.values()) and len(shallow) == 7
        for command, code, out, err in self.outcomes(capsys, tmp_path, qbf_file(self.DEEP[shape], "deep.qbf")):
            if code == 2:
                assert out == "" and err.startswith("error[internal]:") and err.count("\n") == 1, command
            else:
                assert (code, out.split()[:1]) == shallow[command] and err == "", command


class TestCheckAndGrowth:
    def test_exhaustive_check_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--target", "planning", "--exhaustive", "--vars", "2"
        )
        assert code == 0
        assert "verdict=PASS" in out

    def test_random_check_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--target", "default", "--pattern", "ae",
            "--vars", "3", "--seed", "5", "--count", "40",
        )
        assert code == 0
        assert "counterexamples=0" in out

    def test_check_needs_a_mode(self, capsys):
        code, _, err = run_cli(capsys, "check", "--target", "default")
        assert code == 2
        assert err.startswith("error[contract]:")

    def test_per_case_lines(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--target", "abduction", "--exhaustive", "--vars", "1",
            "--depth", "1", "--per-case",
        )
        assert code == 0
        assert "case=0 " in out

    def test_growth_table(self, capsys):
        code, out, _ = run_cli(capsys, "growth", "--target", "abduction", "--raises", "4")
        assert code == 0
        assert "check per-raise deltas identical: PASS" in out


class TestCachedParser:
    """``main`` builds its argument parser once per process; reusing it after
    each kind of failure gives what a fresh process gives."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reuse_matches_fresh_processes(self, capsys, monkeypatch, tmp_path, qbf_file):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        env = dict(os.environ, PYTHONPATH=str(Path(qraise.__file__).parents[1]))
        source = qbf_file("exists x; forall y; : x | y")
        runs = [
            ["reduce", "--target", "nowhere", str(source)],  # usage error
            ["validate", str(qbf_file(": tru(", "bad.qbf"))],
            ["validate", str(qbf_file(TestValidate.wide(QBF_VAR_CAP + 1), "wide.qbf"))],
            ["validate", str(source)],
            ["reduce", "--target", "abduction", str(source), "-o", "{out}"],
            ["solve", "--target", "abduction", "{out}"],
        ]
        outcomes = {"in process": [], "fresh": []}
        for where in outcomes:
            out_file = tmp_path / f"{where}.abd"
            for argv in runs:
                argv = [arg.replace("{out}", str(out_file)) for arg in argv]
                if where == "fresh":
                    done = subprocess.run(
                        [sys.executable, "-m", "qraise.cli", *argv],
                        capture_output=True, text=True, env=env,
                    )
                    outcome = done.returncode, done.stdout, done.stderr
                else:
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    outcome = (code,) + capsys.readouterr()
                outcomes[where].append(outcome)
            outcomes[where].append(out_file.read_text(encoding="utf-8"))
        assert [outcome[0] for outcome in outcomes["fresh"][:-1]] == [2, 2, 3, 0, 0, 0]
        assert outcomes["in process"] == outcomes["fresh"]


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "qraise.cli", "growth", "--target", "default", "--raises", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(qraise.__file__).parents[1])),
    )
    assert result.returncode == 0
    assert "PASS" in result.stdout
