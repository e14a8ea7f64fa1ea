"""Command-line contract: exit codes, output prefixes, file round trips."""

import subprocess
import sys

import pytest

from qraise.cli import main


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

    def test_reduce_wrong_shape_exits_two(self, capsys, qbf_file):
        code, _, err = run_cli(
            capsys, "reduce", "--target", "abduction", str(qbf_file("forall y; exists x; : x & y"))
        )
        assert code == 2
        assert err.startswith("error[contract]:")

    def test_solve_resource_cap_exits_three(self, capsys, tmp_path):
        fluents = [f"f{i}" for i in range(19)]
        lines = [
            "fluents: " + " ".join(fluents),
            "init: " + " ".join(f"{f}=0" for f in fluents),
            "goal: f0",
            "action m: true => f0",
        ]
        path = tmp_path / "big.plan"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "solve", "--target", "planning", str(path))
        assert code == 3
        assert err.startswith("error[resource]:")

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "absent.qbf"))
        assert code == 2
        assert err.startswith("error[io]:")


class TestInternalErrors:
    def test_deep_nesting_is_one_error_line(self, capsys, qbf_file):
        deep = qbf_file("exists x; : " + "!" * 5000 + "x")
        code, out, err = run_cli(capsys, "validate", str(deep))
        assert code == 2 and out == ""
        assert err.startswith("error[internal]:") and err.count("\n") == 1

    def test_plan_replay_failure_is_one_error_line(self, capsys, tmp_path, qbf_file, monkeypatch):
        from qraise import planning

        instance = tmp_path / "instance.plan"
        source = qbf_file("exists x; : x")
        run_cli(capsys, "reduce", "--target", "planning", str(source), "-o", str(instance))
        monkeypatch.setattr(planning, "validate_plan", lambda instance, plan: False)
        code, out, err = run_cli(capsys, "solve", "--target", "planning", str(instance))
        assert code == 2 and out == ""
        assert err.startswith("error[internal]: plan failed replay") and err.count("\n") == 1


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


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "qraise.cli", "growth", "--target", "default", "--raises", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "PASS" in result.stdout
