"""The target interface shared by abduction, default logic and planning,
and the truth-table universe the deciders lay their tables out in."""

import pytest

from qraise.cli import main
from qraise.errors import ContractError, ResourceLimitError
from qraise.formulas import ENTAILMENT_VAR_CAP, universe
from qraise.harness import TARGETS, QbfGenSpec, SampleSpec, check_equivalence, check_lemma
from qraise.harness import measure_growth
from qraise.parsing import parse_qbf
from qraise.qbf import qbf_valid

INTERFACE = (
    "NAME",
    "SUFFIX",
    "SHAPE",
    "reduce_qbf",
    "solve",
    "serialize",
    "parse",
    "sample_merge",
    "growth",
)

# Valid and invalid QBFs of each target shape.
QBFS = {
    "ea": [
        ": true",
        ": false",
        "exists x; forall y; : x | y",
        "exists x; forall y; : x & y",
        "exists x y; forall z; : (x -> z) | y",
        "forall y z; : y | !z",
    ],
    "ae": [
        ": true",
        "forall x; exists y; : x <-> y",
        "forall x; exists y; : x & y",
        "forall x y; exists z; : (x | y) -> z",
        "exists z; : z & !z",
    ],
}
QBFS["any"] = QBFS["ea"] + QBFS["ae"] + [
    "exists x; forall y; exists z; : (x | y) <-> z",
    "forall x; exists y; forall z; : (x <-> y) & z",
    "forall x; exists y; forall z; : (x <-> y) | z",
]

# `qraise reduce` and `qraise solve` stdout and solve exit status, pinned so
# that changes to the target plumbing cannot alter a byte of either.
PINNED = [
    (
        "abduction",
        "exists x; forall y; : x | y",
        "H: x+ x-\nM: _q1 a\nT: !(x | y) | a\nT: !x+ | !x-\nT: x+ -> _q1\nT: x+ -> x\n"
        "T: x- -> !x\nT: x- -> _q1\n",
        "yes explanation={x+}\n",
        0,
    ),
    (
        "abduction",
        "exists x; forall y; : x & y",
        "H: x+ x-\nM: _q1 a\nT: !(x & y) | a\nT: !x+ | !x-\nT: x+ -> _q1\nT: x+ -> x\n"
        "T: x- -> !x\nT: x- -> _q1\n",
        "no\n",
        1,
    ),
    (
        "default",
        "forall x; exists y; : x <-> y",
        "true : x & _p1 / x & _p1\ntrue : !x & _p1 / !x & _p1\n"
        "_p1 & true : a & (x <-> y) / a & (x <-> y)\nquery: a\n",
        "yes extensions=2\n",
        0,
    ),
    (
        "default",
        "forall x; exists y; : x & y",
        "true : x & _p1 / x & _p1\ntrue : !x & _p1 / !x & _p1\n"
        "_p1 & true : a & (x & y) / a & (x & y)\nquery: a\n",
        "no extensions=2\n",
        1,
    ),
    (
        "planning",
        "exists x; forall y; exists z; : (x | y) <-> z",
        "fluents: x y z a _p1 _b2 _p2 _p3\n"
        "init: x=0 y=0 z=0 a=0 _p1=0 _b2=0 _p2=0 _p3=0\n"
        "goal: _b2\n"
        "action apply-matrix: _p3 & (_p2 & (_p1 & (x | y <-> z))) => a\n"
        "action choose-z-true: _p3 & (_p2 & !_p1) => z _p1\n"
        "action choose-z-false: _p3 & (_p2 & !_p1) => !z _p1\n"
        "action enter-y: _p3 & !_p2 => y _p2\n"
        "action flip-y: _p3 & (a & y) => !y !a !_p1\n"
        "action finish-y: _p3 & (a & !y) => _b2\n"
        "action choose-x-true: !_p3 => x _p3\n"
        "action choose-x-false: !_p3 => !x _p3\n",
        "yes plan=choose-x-true enter-y choose-z-true apply-matrix flip-y choose-z-true"
        " apply-matrix finish-y\n",
        0,
    ),
    (
        "planning",
        "exists x; forall y; : x <-> y",
        "fluents: x y a _b1 _p1 _p2\n"
        "init: x=0 y=0 a=0 _b1=0 _p1=0 _p2=0\n"
        "goal: _b1\n"
        "action apply-matrix: _p2 & (_p1 & (x <-> y)) => a\n"
        "action enter-y: _p2 & !_p1 => y _p1\n"
        "action flip-y: _p2 & (a & y) => !y !a\n"
        "action finish-y: _p2 & (a & !y) => _b1\n"
        "action choose-x-true: !_p2 => x _p2\n"
        "action choose-x-false: !_p2 => !x _p2\n",
        "no\n",
        1,
    ),
]


@pytest.mark.parametrize("name", TARGETS)
def test_module_exports_the_interface(name):
    module = TARGETS[name]
    assert all(hasattr(module, attr) for attr in INTERFACE)
    assert module.NAME == name
    assert module.SHAPE in QBFS


@pytest.mark.parametrize("name", TARGETS)
def test_text_round_trip_decides_validity(name):
    module = TARGETS[name]
    for text in QBFS[module.SHAPE]:
        q = parse_qbf(text)
        answer, _ = module.solve(module.parse(module.serialize(module.reduce_qbf(q))))
        assert answer == qbf_valid(q), text


@pytest.mark.parametrize(
    "check",
    [
        lambda target: check_equivalence(target, QbfGenSpec(count=0)),
        lambda target: check_lemma(target, SampleSpec(count=0)),
        lambda target: measure_growth(target, 0),
    ],
    ids=["check_equivalence", "check_lemma", "measure_growth"],
)
def test_unknown_target_is_rejected_alike(check):
    with pytest.raises(ValueError, match="^unknown target 'sat'$"):
        check("sat")


def test_default_parse_needs_a_query():
    with pytest.raises(ContractError, match="no 'query:' line"):
        TARGETS["default"].parse("true : x / x\n")


@pytest.mark.parametrize(
    "target, text, reduced, solved, code", PINNED, ids=[f"{case[0]}-{case[4]}" for case in PINNED]
)
def test_cli_output_is_pinned(capsys, tmp_path, target, text, reduced, solved, code):
    source = tmp_path / "input.qbf"
    source.write_text(text, encoding="utf-8")
    assert main(["reduce", "--target", target, str(source)]) == 0
    assert capsys.readouterr().out == reduced
    instance = tmp_path / f"input.{TARGETS[target].SUFFIX}"
    instance.write_text(reduced, encoding="utf-8")
    assert main(["solve", "--target", target, str(instance)]) == code
    assert capsys.readouterr().out == solved


class TestUniverse:
    def test_keeps_the_given_order(self):
        u = universe(["z", "a", "m", "a"])
        assert u.order == {"z": 0, "a": 1, "m": 2}
        assert u.width == 3
        assert u.full == (1 << 8) - 1

    def test_cap_error_names_size_and_cap(self):
        size = ENTAILMENT_VAR_CAP + 1
        with pytest.raises(
            ResourceLimitError, match=f"^{size} variables exceed the cap of {ENTAILMENT_VAR_CAP}$"
        ):
            universe(f"v{i}" for i in range(size))
