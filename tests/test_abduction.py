"""Explanation finding, the base encoding, and the existential raise."""

import random
from itertools import combinations, product

import pytest

from qraise import abduction
from qraise.abduction import (
    HYPOTHESIS_CAP,
    AbductionInstance,
    base_reduction,
    enumerate_explanations,
    has_explanation,
    is_explanation,
    parse_instance,
    raise_existential,
    reduce_qbf,
    sample_merge,
    serialize_instance,
    solve,
    substitute_theory,
)
from qraise.errors import ContractError, ResourceLimitError, UnsupportedShapeError
from qraise.cli import main
from qraise.formulas import (
    ENTAILMENT_VAR_CAP,
    FALSE,
    TRUE,
    And,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    conjunction,
    truth_table,
    universe,
    variables,
)
from qraise.harness import exhaustive_qbfs
from qraise.parsing import parse_formula, parse_qbf
from qraise.qbf import Qbf, Quantifier, qbf_valid, raise_prefix, split_prefix

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


# --- fresh-name clashes against the per-raise fold -------------------------------

def _per_raise_fold(q):
    """``reduce_qbf`` as it was, kept as the reference: every raise walks the
    whole instance to check its fresh names."""
    existential, _ = split_prefix(q, abduction.SHAPE)
    if abduction.GOAL_VAR in (name for _, name in q.prefix):
        raise ContractError(f"prefix uses the reserved manifestation name {abduction.GOAL_VAR!r}")
    instance = abduction.base_instance(q.matrix)
    return raise_prefix(instance, existential, {Quantifier.EXISTS: raise_existential})


def _reduced_text(reduce, q):
    try:
        return serialize_instance(reduce(q))
    except (ContractError, UnsupportedShapeError) as exc:
        return type(exc).__name__, str(exc)


class TestFreshNameClashes:
    def test_raised_name_clashes_with_a_later_raise(self):
        q = parse_qbf("exists x x+; forall y; : x & x+ | y")
        with pytest.raises(ContractError, match=r"fresh name 'x\+' already occurs in the instance"):
            reduce_qbf(q)

    def test_prefix_name_the_matrix_leaves_out_does_not_clash(self):
        # x+ is a fresh name of x's raise, but nothing in the instance uses it.
        q = parse_qbf("exists x; forall x+; : x")
        assert _reduced_text(reduce_qbf, q) == _reduced_text(_per_raise_fold, q)
        assert "x+" in reduce_qbf(q).hypotheses

    def test_bridge_name_in_the_matrix_clashes(self):
        q = Qbf(((Quantifier.EXISTS, "x"), (Quantifier.FORALL, "_q1")), Or(X, Var("_q1")))
        with pytest.raises(ContractError, match="fresh name '_q1' already occurs"):
            reduce_qbf(q)

    def test_standalone_raise_still_walks_the_instance(self):
        inst = AbductionInstance(frozenset(), frozenset({"a"}), frozenset({Var("_q2")}))
        with pytest.raises(ContractError, match="fresh name '_q2'"):
            raise_existential(inst, "x", 2)
        inst = AbductionInstance(frozenset(), frozenset({"a"}), frozenset({Var("x-")}))
        with pytest.raises(ContractError, match="fresh name 'x-'"):
            raise_existential(inst, "x", 1)

    def test_random_qbfs_reduce_as_the_per_raise_fold(self):
        rng = random.Random(41)
        pool = ["x", "x+", "x-", "y", "y+", "x+-", "_q1", "_q2", "a"]
        outcomes = {"ok": 0, "clash": 0, "other error": 0}
        for _ in range(3000):
            names = rng.sample(pool, rng.randint(0, 4))
            prefix = tuple((rng.choice(list(Quantifier)), name) for name in names)
            mentioned = [name for name in names if rng.random() < 0.6]
            matrix = _random_formula(rng, mentioned, 2) if mentioned else TRUE
            q = Qbf(prefix, matrix)
            expected = _reduced_text(_per_raise_fold, q)
            assert _reduced_text(reduce_qbf, q) == expected, q
            if isinstance(expected, str):
                outcomes["ok"] += 1
            else:
                outcomes["clash" if "fresh name" in expected[1] else "other error"] += 1
        assert min(outcomes.values()) > 100, outcomes


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


# --- projection against the full-table decider ----------------------------------

def _full_table_explanations(instance, first_only):
    """The decider before projection, kept as the reference: one table set
    over every variable of the instance, walked in the same order."""
    if len(instance.hypotheses) > HYPOTHESIS_CAP:
        raise ResourceLimitError(
            f"{len(instance.hypotheses)} hypotheses exceed the enumeration cap of"
            f" {HYPOTHESIS_CAP}"
        )
    u = universe(sorted(instance.all_variables()))
    theory_mask = u.full
    for f in instance.theory:
        theory_mask &= truth_table(f, u.order, u.width)
    goal_mask = u.full
    for name in sorted(instance.manifestations):
        goal_mask &= truth_table(Var(name), u.order, u.width)
    hyp_masks = [
        (name, truth_table(Var(name), u.order, u.width)) for name in sorted(instance.hypotheses)
    ]
    not_goal = u.full ^ goal_mask
    stack = [((), theory_mask, 0)] if theory_mask else []
    found = []
    while stack:
        chosen, mask, start = stack.pop()
        if start == (chosen[-1] + 1 if chosen else 0) and mask & not_goal == 0:
            found.append(frozenset(hyp_masks[i][0] for i in chosen))
            if first_only:
                return found
        for i in range(start, len(hyp_masks)):
            narrowed = mask & hyp_masks[i][1]
            if narrowed:
                stack.append((chosen, mask, i + 1))
                stack.append((chosen + (i,), narrowed, i + 1))
                break
    return found


def _assert_matches_full_table(instance):
    """Same ``solve`` answer and detail, same explanation set; returns the
    number of explanations."""
    least = _full_table_explanations(instance, first_only=True)
    detail = f"explanation={{{', '.join(sorted(least[0]))}}}" if least else ""
    assert solve(instance) == (bool(least), detail)
    everything = enumerate_explanations(instance)
    assert everything == frozenset(_full_table_explanations(instance, first_only=False))
    return len(everything)


def test_projection_matches_full_table_on_the_exhaustive_sweep():
    counts = [_assert_matches_full_table(reduce_qbf(q)) for q in exhaustive_qbfs(3, 3, "ea")]
    assert 0 < sum(1 for c in counts if c) < len(counts)
    assert any(c > 1 for c in counts)


def test_projection_matches_full_table_on_lemma_draws():
    rng = random.Random(31)
    counts = []
    for _ in range(1500):
        instance, failure, _ = sample_merge(rng, rng.randint(2, 6), rng.randint(1, 3))
        assert not failure
        counts.append(_assert_matches_full_table(instance))
    assert 0 < sum(1 for c in counts if c) < len(counts)


def _general_instance(rng, kind):
    """A seeded instance; ``kind`` picks the feature it is built to have."""
    hyps = [f"h{i}" for i in range(rng.randint(1, 5))]
    mans = [f"m{i}" for i in range(rng.randint(1, 3))]
    hidden = [f"y{i}" for i in range(rng.randint(1, 4))]
    everyone = hyps + mans + hidden
    theory = set()
    if kind == "empty":
        pass
    elif kind == "kept only":
        theory |= {_random_formula(rng, hyps + mans, 3) for _ in range(rng.randint(1, 3))}
    elif kind == "hidden only":
        theory |= {_random_formula(rng, hidden, 3) for _ in range(rng.randint(1, 3))}
    elif kind == "unmentioned":
        # at most one hypothesis and one manifestation occur in the theory
        theory |= {_random_formula(rng, hidden + hyps[:1] + mans[:1], 3) for _ in range(2)}
    elif kind == "const":
        consts = [TRUE, FALSE, Or(TRUE, Var(rng.choice(hidden))), Implies(Var(hyps[0]), FALSE)]
        theory.add(rng.choice(consts))
        theory.add(Iff(rng.choice([TRUE, FALSE]), _random_formula(rng, everyone, 2)))
    elif kind == "unsatisfiable":
        name = rng.choice(everyone)
        theory |= {Var(name), Not(Var(name)), _random_formula(rng, everyone, 2)}
    else:
        theory |= {_random_formula(rng, everyone, 3) for _ in range(rng.randint(1, 4))}
    if kind not in ("empty", "hidden only", "unmentioned", "unsatisfiable"):
        # pairs of hypotheses that reach a manifestation through a hidden variable
        for _ in range(rng.randint(1, 3)):
            pair = And(Var(rng.choice(hyps)), Var(rng.choice(hyps)))
            link = rng.choice(hidden)
            theory.add(Implies(pair, Var(link)))
            theory.add(Implies(Var(link), conjunction(Var(m) for m in mans)))
    return AbductionInstance(frozenset(hyps), frozenset(mans), frozenset(theory))


def test_projection_matches_full_table_on_general_instances():
    kinds = ("empty", "kept only", "hidden only", "unmentioned", "const", "unsatisfiable", "mixed")
    rng = random.Random(32)
    counts = {kind: [] for kind in kinds}
    for k in range(350):
        kind = kinds[k % len(kinds)]
        instance = _general_instance(rng, kind)
        counts[kind].append(_assert_matches_full_table(instance))
    assert all(c == 0 for c in counts["unsatisfiable"])
    assert all(c == 0 for c in counts["empty"])  # every instance manifests something
    for kind in ("kept only", "const", "mixed"):
        assert any(counts[kind]) and not all(counts[kind]), kind
    assert any(c > 1 for c in counts["mixed"])


# --- past the old whole-instance cap ------------------------------------------

def _matrix_over(rng, names):
    """A random matrix that mentions every name at least once."""
    picks = list(names) + [rng.choice(names) for _ in range(len(names) // 2)]
    rng.shuffle(picks)

    def tree(leaves):
        if len(leaves) == 1:
            return Not(Var(leaves[0])) if rng.random() < 0.3 else Var(leaves[0])
        half = len(leaves) // 2
        return rng.choice([And, Or, Implies, Iff])(tree(leaves[:half]), tree(leaves[half:]))

    return tree(picks)


@pytest.mark.parametrize("existential,universal", [(5, 2), (5, 4), (6, 2), (6, 3)])
def test_reductions_past_the_old_cap_agree_with_the_oracle(existential, universal):
    rng = random.Random(existential * 10 + universal)
    xs = [f"x{i + 1}" for i in range(existential)]
    ys = [f"y{i + 1}" for i in range(universal)]
    prefix = tuple((Quantifier.EXISTS, n) for n in xs) + tuple((Quantifier.FORALL, n) for n in ys)
    answers = []
    for _ in range(6):
        q = Qbf(prefix, _matrix_over(rng, xs + ys))
        instance = reduce_qbf(q)
        assert len(instance.all_variables()) == 4 * existential + universal + 1
        assert len(instance.all_variables()) > ENTAILMENT_VAR_CAP
        answers.append(has_explanation(instance))
        assert answers[-1] == qbf_valid(q)
    assert any(answers) and not all(answers)


def test_widest_reduction_at_the_caps_decides():
    """7 existentials (14 hypotheses, the cap) under 9 universals: 16 QBF
    variables, 38 instance variables; one valid and one invalid draw."""
    rng = random.Random(79)
    xs = [f"x{i + 1}" for i in range(7)]
    ys = [f"y{i + 1}" for i in range(9)]
    prefix = tuple((Quantifier.EXISTS, n) for n in xs) + tuple((Quantifier.FORALL, n) for n in ys)
    seen = set()
    while len(seen) < 2:
        q = Qbf(prefix, _matrix_over(rng, xs + ys))
        valid = qbf_valid(q)
        if valid in seen:
            continue
        seen.add(valid)
        instance = reduce_qbf(q)
        assert len(instance.all_variables()) == 38
        assert len(instance.hypotheses) == HYPOTHESIS_CAP
        assert has_explanation(instance) == valid


@pytest.mark.parametrize(
    "matrix,expected",
    [
        ("(x1 | y1 | !y2) & (x2 -> x3) & (x4 | x5 | x6 | y2)", 0),
        ("(x1 & y1) | (x2 & x3 & x4 & x5 & x6 & y2)", 1),
    ],
)
def test_cli_round_trip_past_the_old_cap(capsys, tmp_path, matrix, expected):
    source = tmp_path / "wide.qbf"
    source.write_text(f"exists x1 x2 x3 x4 x5 x6;\nforall y1 y2;\n: {matrix}\n", encoding="utf-8")
    target = tmp_path / "wide.abd"
    assert main(["validate", str(source)]) == expected
    assert main(["reduce", "--target", "abduction", str(source), "-o", str(target)]) == 0
    assert len(parse_instance(target.read_text()).all_variables()) == 27
    capsys.readouterr()
    assert main(["solve", "--target", "abduction", str(target)]) == expected
    out, err = capsys.readouterr()
    assert out.startswith("yes" if expected == 0 else "no") and err == ""


# --- caps -------------------------------------------------------------------------

def test_wide_theory_formula_is_one_resource_error(capsys, tmp_path):
    wide = " | ".join(f"v{i}" for i in range(ENTAILMENT_VAR_CAP + 1))
    path = tmp_path / "wide.abd"
    path.write_text(f"H: h\nM: m\nT: h -> m\nT: {wide}\n", encoding="utf-8")
    assert main(["solve", "--target", "abduction", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error[resource]: {ENTAILMENT_VAR_CAP + 1} variables in one elimination bucket exceed"
        f" the cap of {ENTAILMENT_VAR_CAP}"
    ]


def test_hypothesis_cap_comes_before_any_table(monkeypatch):
    def fail(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(abduction, "project", fail)
    wide = conjunction(Var(f"v{i}") for i in range(ENTAILMENT_VAR_CAP + 1))
    many = frozenset(f"h{i}" for i in range(HYPOTHESIS_CAP + 1))
    inst = AbductionInstance(many, frozenset({"a"}), frozenset({wide}))
    with pytest.raises(
        ResourceLimitError,
        match=f"^{HYPOTHESIS_CAP + 1} hypotheses exceed the enumeration cap of {HYPOTHESIS_CAP}$",
    ):
        solve(inst)


def test_kept_set_cap_names_the_kept_variables():
    hyps = frozenset(f"h{i}" for i in range(HYPOTHESIS_CAP))
    mans = frozenset(f"m{i}" for i in range(ENTAILMENT_VAR_CAP + 1 - HYPOTHESIS_CAP))
    with pytest.raises(
        ResourceLimitError,
        match=f"^{ENTAILMENT_VAR_CAP + 1} kept variables exceed the cap of {ENTAILMENT_VAR_CAP}$",
    ):
        solve(AbductionInstance(hyps, mans, frozenset()))
