"""Explanation finding, the base encoding, and the existential raise."""

import random
from itertools import combinations, product

import pytest

from qraise.abduction import (
    AbductionInstance,
    base_reduction,
    enumerate_explanations,
    has_explanation,
    is_explanation,
    parse_instance,
    raise_existential,
    reduce_qbf,
    serialize_instance,
    solve,
    substitute_theory,
)
from qraise.errors import ContractError, ResourceLimitError, UnsupportedShapeError
from qraise.formulas import And, FALSE, Implies, Not, Or, Var, variables
from qraise.parsing import parse_formula, parse_qbf
from qraise.qbf import qbf_valid

from test_formulas import naive_eval

A, H, X, Y = Var("a"), Var("h"), Var("x"), Var("y")


def naive_explanations(instance):
    """Test-side oracle: enumerate subsets, decide each by assignment enumeration."""
    names = sorted(
        set(instance.hypotheses)
        | set(instance.manifestations)
        | set().union(set(), *(variables(f) for f in instance.theory))
    )
    found = set()
    for r in range(len(instance.hypotheses) + 1):
        for chosen in combinations(sorted(instance.hypotheses), r):
            sat = False
            entailed = True
            for bits in product([False, True], repeat=len(names)):
                asn = dict(zip(names, bits))
                if not all(asn[v] for v in chosen):
                    continue
                if not all(naive_eval(f, asn) for f in instance.theory):
                    continue
                sat = True
                if not all(asn[m] for m in instance.manifestations):
                    entailed = False
                    break
            if sat and entailed:
                found.add(frozenset(chosen))
    return found


class TestIsExplanation:
    def test_dead_branch_entails(self):
        inst = AbductionInstance(
            frozenset(), frozenset({"a"}), frozenset({Or(Not(Or(Y, Not(Y))), A)})
        )
        assert is_explanation(inst, set()) is True

    def test_live_branch_does_not(self):
        inst = AbductionInstance(frozenset(), frozenset({"a"}), frozenset({Or(Not(Y), A)}))
        assert is_explanation(inst, set()) is False

    def test_inconsistent_selection(self):
        inst = AbductionInstance(
            frozenset({"h"}), frozenset({"a"}), frozenset({Implies(H, A), Not(H)})
        )
        assert is_explanation(inst, {"h"}) is False

    def test_non_hypothesis_rejected(self):
        inst = AbductionInstance(frozenset({"h"}), frozenset({"a"}), frozenset({A}))
        with pytest.raises(ContractError):
            is_explanation(inst, {"z"})


class TestEnumerate:
    def test_trivial_theory(self):
        inst = AbductionInstance(frozenset(), frozenset({"a"}), frozenset({A}))
        assert enumerate_explanations(inst) == {frozenset()}

    def test_hypothesis_needed(self):
        inst = AbductionInstance(frozenset({"h"}), frozenset({"a"}), frozenset({Implies(H, A)}))
        assert enumerate_explanations(inst) == {frozenset({"h"})}

    def test_contradicted_manifestation(self):
        inst = AbductionInstance(frozenset(), frozenset({"a"}), frozenset({Not(A)}))
        assert enumerate_explanations(inst) == set()

    def test_has_explanation_matches(self):
        for theory in ({A}, {Implies(H, A)}, {Not(A)}):
            inst = AbductionInstance(frozenset({"h"}), frozenset({"a"}), frozenset(theory))
            assert has_explanation(inst) == bool(enumerate_explanations(inst))

    def test_hypothesis_cap(self):
        many = frozenset(f"h{i}" for i in range(15))
        inst = AbductionInstance(many, frozenset({"a"}), frozenset({A}))
        with pytest.raises(ResourceLimitError):
            enumerate_explanations(inst)

    def test_agrees_with_naive_oracle(self):
        rng = random.Random(7)
        pool = ["x", "v1", "v2"]
        for _ in range(40):
            hyps = frozenset(n for n in pool[1:] if rng.random() < 0.5)
            rest = [n for n in pool if n not in hyps]
            mans = frozenset(n for n in rest if rng.random() < 0.4)
            theory = frozenset(
                _random_formula(rng, pool, 2) for _ in range(rng.randint(0, 3))
            )
            inst = AbductionInstance(hyps, mans, theory)
            assert enumerate_explanations(inst) == naive_explanations(inst)

    def test_single_subset_check_matches_enumeration(self):
        rng = random.Random(8)
        pool = ["x", "v1", "v2"]
        for _ in range(25):
            hyps = frozenset(n for n in pool[1:] if rng.random() < 0.6)
            mans = frozenset(n for n in pool if n not in hyps and rng.random() < 0.4)
            theory = frozenset(_random_formula(rng, pool, 2) for _ in range(rng.randint(0, 2)))
            inst = AbductionInstance(hyps, mans, theory)
            everything = enumerate_explanations(inst)
            for r in range(len(hyps) + 1):
                for chosen in combinations(sorted(hyps), r):
                    assert is_explanation(inst, chosen) == (frozenset(chosen) in everything)

    def test_solve_names_the_least_explanation(self):
        rng = random.Random(12)
        for _ in range(150):
            hyps = [f"h{i}" for i in range(rng.randint(0, 6))]
            theory = {_random_formula(rng, hyps + ["v"], 2) for _ in range(rng.randint(0, 2))}
            if hyps:
                # pairs that explain m, and one pair that clashes
                for _ in range(rng.randint(1, 3)):
                    pair = And(Var(rng.choice(hyps)), Var(rng.choice(hyps)))
                    theory.add(Implies(pair, Var("m")))
                theory.add(Or(Not(Var(rng.choice(hyps))), Not(Var(rng.choice(hyps)))))
            inst = AbductionInstance(frozenset(hyps), frozenset({"m"}), frozenset(theory))
            everything = enumerate_explanations(inst)
            found, detail = solve(inst)
            assert found == has_explanation(inst) == bool(everything)
            if everything:
                least = min(sorted(s) for s in everything)
                assert detail == f"explanation={{{', '.join(least)}}}"


def _random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(names))
    kind = rng.random()
    if kind < 0.25:
        return Not(_random_formula(rng, names, depth - 1))
    ctor = rng.choice([And, Or, Implies])
    return ctor(_random_formula(rng, names, depth - 1), _random_formula(rng, names, depth - 1))


class TestInstanceContract:
    def test_overlapping_sets_rejected(self):
        with pytest.raises(ContractError, match="overlap"):
            AbductionInstance(frozenset({"h"}), frozenset({"h"}), frozenset())


class TestBaseReduction:
    def test_valid_matrix_has_explanation(self):
        inst = base_reduction(Or(Y, Not(Y)), ["y"])
        assert inst.hypotheses == frozenset()
        assert inst.manifestations == {"a"}
        assert inst.theory == {Or(Not(Or(Y, Not(Y))), A)}
        assert has_explanation(inst) is True

    def test_invalid_matrix_has_none(self):
        assert has_explanation(base_reduction(Y, ["y"])) is False

    def test_false_matrix_has_none(self):
        assert has_explanation(base_reduction(FALSE, [])) is False

    def test_reserved_name_collision(self):
        with pytest.raises(ContractError):
            base_reduction(Var("a"), ["a"])

    def test_matrix_outside_block_rejected(self):
        with pytest.raises(ContractError):
            base_reduction(And(X, Y), ["y"])


class TestRaiseExistential:
    def test_construction_shape(self):
        inst = AbductionInstance(frozenset(), frozenset({"a"}), frozenset({Or(Not(X), A)}))
        raised = raise_existential(inst, "x", 1)
        assert raised.hypotheses == {"x+", "x-"}
        assert raised.manifestations == {"a", "_q1"}
        assert len(raised.theory) == 6

    def test_only_true_branch_explains(self):
        # T = {!x | a}: fixing x true forces a, fixing x false leaves a open,
        # so the raised instance is explained exactly by {x+}.
        inst = AbductionInstance(frozenset(), frozenset({"a"}), frozenset({Or(Not(X), A)}))
        raised = raise_existential(inst, "x", 1)
        assert enumerate_explanations(raised) == {frozenset({"x+"})}

    def test_both_branches_explain(self):
        inst = AbductionInstance(frozenset(), frozenset({"a"}), frozenset({A}))
        raised = raise_existential(inst, "x", 1)
        assert enumerate_explanations(raised) == {frozenset({"x+"}), frozenset({"x-"})}

    def test_freshness_violations(self):
        inst = AbductionInstance(frozenset({"x"}), frozenset({"a"}), frozenset())
        with pytest.raises(ContractError):
            raise_existential(inst, "x", 1)
        occupied = AbductionInstance(frozenset(), frozenset({"a"}), frozenset({Var("x+")}))
        with pytest.raises(ContractError):
            raise_existential(occupied, "x", 1)

    def test_growth_deltas(self):
        inst = AbductionInstance(frozenset(), frozenset({"a"}), frozenset({Or(Not(X), A)}))
        raised = raise_existential(inst, "x", 1)
        assert len(raised.hypotheses) - len(inst.hypotheses) == 2
        assert len(raised.manifestations) - len(inst.manifestations) == 1
        assert len(raised.theory) - len(inst.theory) == 5
        assert len(raised.all_variables()) - len(inst.all_variables()) == 3


def test_lemma_merge_on_random_instances():
    """Raised explanations == tagged union of the two fixed-branch explanation sets."""
    rng = random.Random(20)
    pool = ["x", "v1", "v2"]
    for _ in range(60):
        hyps = frozenset(n for n in pool[1:] if rng.random() < 0.4)
        rest = [n for n in pool[1:] if n not in hyps]
        mans = frozenset(n for n in rest if rng.random() < 0.4)
        theory = frozenset(_random_formula(rng, pool, 2) for _ in range(rng.randint(0, 3)))
        inst = AbductionInstance(hyps, mans, theory)
        raised = raise_existential(inst, "x", 1)
        on_true = enumerate_explanations(substitute_theory(inst, "x", True))
        on_false = enumerate_explanations(substitute_theory(inst, "x", False))
        expected = {s | {"x+"} for s in on_true} | {s | {"x-"} for s in on_false}
        assert enumerate_explanations(raised) == expected


class TestReduceQbf:
    def test_exists_forall_valid(self):
        q = parse_qbf("exists x; forall y; : x | y")
        inst = reduce_qbf(q)
        assert has_explanation(inst) is True
        assert qbf_valid(q) is True

    def test_forall_invalid(self):
        q = parse_qbf("forall y; : y")
        assert has_explanation(reduce_qbf(q)) is False

    def test_exists_biconditional(self):
        q = parse_qbf("exists x; : x <-> x")
        assert has_explanation(reduce_qbf(q)) is True

    def test_wrong_shape_rejected(self):
        with pytest.raises(UnsupportedShapeError):
            reduce_qbf(parse_qbf("forall y; exists x; : x & y"))

    def test_reserved_prefix_name_rejected(self):
        with pytest.raises(ContractError):
            reduce_qbf(parse_qbf("exists a; : a"))

    def test_raises_innermost_first(self):
        q = parse_qbf("exists x1 x2; : x1 | x2")
        inst = reduce_qbf(q)
        # innermost (x2) was raised first, so its bridge got index 1
        assert {"_q1", "_q2"} <= inst.manifestations
        assert Implies(Var("x2+"), Var("_q1")) in inst.theory
        assert Implies(Var("x1+"), Var("_q2")) in inst.theory


class TestInstanceFormat:
    def test_round_trip(self):
        q = parse_qbf("exists x; forall y; : x | y")
        inst = reduce_qbf(q)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_parse_sections(self):
        text = "H: h\nM: a\nT: h -> a\nT: !h | a\n"
        inst = parse_instance(text)
        assert inst.hypotheses == {"h"}
        assert inst.theory == {parse_formula("h -> a"), parse_formula("!h | a")}

    def test_bad_line_rejected(self):
        with pytest.raises(Exception):
            parse_instance("H: h\nM: a\nbogus line\n")
