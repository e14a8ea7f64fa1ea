"""Generators, equivalence checks, lemma checks, growth tables, reports."""

import pytest

from qraise.errors import UnsupportedShapeError
from qraise.formulas import Const, Var
from qraise.harness import (
    CheckReport,
    Counterexample,
    PrefixPattern,
    QbfGenSpec,
    SampleSpec,
    check_equivalence,
    check_lemma,
    exhaustive_qbfs,
    generate_qbfs,
    measure_growth,
    template_matrices,
)
from qraise.parsing import parse_qbf, serialize_qbf_compact
from qraise.qbf import Qbf, Quantifier


class TestGeneration:
    def test_same_seed_same_stream(self):
        spec = QbfGenSpec(seed=7, num_vars=3, prefix_pattern=PrefixPattern.ARBITRARY, count=50)
        first = [serialize_qbf_compact(q) for q in generate_qbfs(spec)]
        second = [serialize_qbf_compact(q) for q in generate_qbfs(spec)]
        assert first == second

    def test_different_seeds_differ(self):
        a = [serialize_qbf_compact(q) for q in generate_qbfs(QbfGenSpec(seed=1, count=30))]
        b = [serialize_qbf_compact(q) for q in generate_qbfs(QbfGenSpec(seed=2, count=30))]
        assert a != b

    def test_exhaustive_one_var_depth_one(self):
        got = set(map(serialize_qbf_compact, exhaustive_qbfs(1, 1, "any")))
        assert serialize_qbf_compact(parse_qbf("exists x1; : x1")) in got
        assert serialize_qbf_compact(parse_qbf("forall x1; : x1")) in got

    def test_exhaustive_zero_vars(self):
        qbfs = list(exhaustive_qbfs(0, 3, "any"))
        assert {q.matrix for q in qbfs} == {Const(True), Const(False)}
        assert all(q.prefix == () for q in qbfs)

    def test_matrices_are_closed_over_prefix(self):
        from qraise.formulas import variables

        for q in exhaustive_qbfs(2, 2, "any"):
            assert variables(q.matrix) <= {name for _, name in q.prefix}

    def test_random_stream_is_roughly_balanced(self):
        from qraise.qbf import qbf_valid

        qbfs = list(generate_qbfs(QbfGenSpec(seed=5, num_vars=3, count=200)))
        valid = sum(qbf_valid(q) for q in qbfs)
        assert 60 <= valid <= 140

    # Captured before the prefix generators shared one shape table; a change
    # to the RNG draws or the prefix order shows here.
    @pytest.mark.parametrize(
        "spec,first",
        [
            (
                QbfGenSpec(seed=11, prefix_pattern=PrefixPattern.EXISTS_FORALL, matrix_depth=2),
                [
                    "exists x1 x2; : x1 | x1",
                    "forall x1 x2 x3; : !x1 & (x1 & !x1 & x1)",
                    "exists x1; : !x1 | (x1 & !x1 <-> true)",
                    "forall x1 x2 x3; : x2",
                ],
            ),
            (
                QbfGenSpec(seed=11, prefix_pattern=PrefixPattern.FORALL_EXISTS, matrix_depth=2),
                [
                    "exists x1 x2 x3; : !false | (x3 | x1)",
                    "exists x1 x2 x3; : !x1 & (x1 & !x1 & x1)",
                    "forall x1; exists x2 x3; : false | x3 | !x3",
                    "forall x1; : x1",
                ],
            ),
            (
                QbfGenSpec(seed=11, prefix_pattern=PrefixPattern.ARBITRARY, matrix_depth=2),
                [
                    "forall x1 x2; exists x3; : !false | (x3 | x1)",
                    "exists x1 x2; : x1 & x2 & !x1",
                    "forall x1; exists x2; : x1 & (x1 | !x1) -> x2",
                    "forall x1 x2 x3; : !x2 -> x1",
                ],
            ),
            (
                QbfGenSpec(num_vars=1, prefix_pattern=PrefixPattern.EXHAUSTIVE, matrix_depth=1),
                [
                    ": true", ": false",
                    "forall x1; : true", "forall x1; : false", "forall x1; : x1", "forall x1; : !x1",
                    "exists x1; : true", "exists x1; : false", "exists x1; : x1", "exists x1; : !x1",
                ],
            ),
        ],
        ids=[pattern.value for pattern in PrefixPattern],
    )
    def test_first_qbfs_are_pinned(self, spec, first):
        stream = generate_qbfs(spec)
        assert [serialize_qbf_compact(next(stream)) for _ in first] == first

    @pytest.mark.parametrize(
        "shape,prefixes",
        [
            ("ea", ["exists x1", "forall x1", "exists x1 x2", "exists x1; forall x2", "forall x1 x2"]),
            ("ae", ["forall x1", "exists x1", "forall x1 x2", "forall x1; exists x2", "exists x1 x2"]),
            (
                "any",
                [
                    "forall x1", "exists x1", "forall x1 x2", "exists x1; forall x2",
                    "forall x1; exists x2", "exists x1 x2",
                ],
            ),
        ],
    )
    def test_exhaustive_prefix_order_is_pinned(self, shape, prefixes):
        got = [serialize_qbf_compact(q) for q in exhaustive_qbfs(2, 0, shape) if q.matrix == Const(True)]
        assert got == [": true"] + [f"{p}; : true" for p in prefixes]

    def test_template_counts_are_deterministic(self):
        names = ("x1", "x2")
        assert template_matrices(names, 3) == template_matrices(names, 3)
        assert len(template_matrices((), 3)) == 2


class TestCheckEquivalence:
    def test_abduction_exhaustive_small(self):
        report = check_equivalence(
            "abduction", QbfGenSpec(num_vars=2, prefix_pattern=PrefixPattern.EXHAUSTIVE)
        )
        assert report.ok and report.agreements == report.total > 0

    def test_planning_random(self):
        report = check_equivalence(
            "planning",
            QbfGenSpec(seed=9, num_vars=3, prefix_pattern=PrefixPattern.ARBITRARY, count=80),
        )
        assert report.ok and report.agreements == report.total == 80

    def test_planning_accepts_block_patterns_too(self):
        report = check_equivalence(
            "planning",
            QbfGenSpec(seed=17, num_vars=3, prefix_pattern=PrefixPattern.EXISTS_FORALL, count=100),
        )
        assert report.ok and report.agreements == report.total == 100

    def test_default_rejects_wrong_pattern(self):
        with pytest.raises(UnsupportedShapeError):
            check_equivalence(
                "default", QbfGenSpec(prefix_pattern=PrefixPattern.EXISTS_FORALL, count=5)
            )

    def test_case_lines_collected_on_request(self):
        spec = QbfGenSpec(num_vars=1, prefix_pattern=PrefixPattern.EXHAUSTIVE, matrix_depth=1)
        report = check_equivalence("planning", spec, collect_cases=True)
        assert len(report.case_lines) == report.total
        assert all(line.startswith("case=") for line in report.case_lines)

    def test_report_rendering_is_deterministic(self):
        spec = QbfGenSpec(seed=4, num_vars=2, prefix_pattern=PrefixPattern.ARBITRARY, count=25)
        one = check_equivalence("planning", spec).render()
        two = check_equivalence("planning", spec).render()
        assert one == two
        assert "verdict=PASS" in one


class TestCheckLemma:
    @pytest.mark.parametrize("target", ["abduction", "default", "planning"])
    def test_small_samples_agree(self, target):
        report = check_lemma(target, SampleSpec(seed=13, count=30))
        assert report.ok
        assert report.total == 30 and report.agreements == 30


class TestGrowth:
    def test_abduction_constant_deltas(self):
        table = measure_growth("abduction", 5)
        assert table.ok
        deltas = {
            (
                table.rows[i].variables - table.rows[i - 1].variables,
                table.rows[i].items - table.rows[i - 1].items,
                table.rows[i].total_size - table.rows[i - 1].total_size,
            )
            for i in range(1, len(table.rows))
        }
        assert deltas == {(3, 5, 18)}

    def test_default_quadratic(self):
        table = measure_growth("default", 5)
        assert table.ok
        totals = [row.total_size for row in table.rows]
        first = [b - a for a, b in zip(totals, totals[1:])]
        second = {b - a for a, b in zip(first, first[1:])}
        assert len(second) == 1 and second.pop() > 0

    def test_planning_action_bound(self):
        table = measure_growth("planning", 5)
        assert table.ok
        assert all(row.items <= 3 * row.raises + 1 for row in table.rows)

    def test_render_contains_verdicts(self):
        text = measure_growth("planning", 3).render()
        assert "PASS" in text and "raises" in text


class TestFixtures:
    def test_counterexamples_written_as_replayable_files(self, tmp_path):
        from qraise.harness import _write_fixture

        q = parse_qbf("exists x; : x")
        ce = Counterexample(3, "synthetic", q, "True", "False")
        _write_fixture(tmp_path, "abduction", ce, "H: h\nM: a\nT: h -> a\n")
        qbf_file = tmp_path / "counterexample-abduction-000003.qbf"
        inst_file = tmp_path / "counterexample-abduction-000003.abd"
        assert parse_qbf(qbf_file.read_text()) == q
        from qraise.abduction import parse_instance

        assert parse_instance(inst_file.read_text()).hypotheses == {"h"}

    def test_failing_report_renders_counterexample(self):
        q = Qbf(((Quantifier.EXISTS, "x"),), Var("x"))
        report = CheckReport(
            target="planning",
            mode="synthetic",
            total=1,
            agreements=0,
            counterexamples=(Counterexample(0, "synthetic", q, "True", "False"),),
        )
        text = report.render()
        assert "verdict=FAIL" in text
        assert "exists x; : x" in text
