"""Action semantics, exact plan search, and the two raising gadgets."""

import random

import pytest

from qraise.errors import ContractError, ResourceLimitError
from qraise.formulas import And, FALSE, Iff, Not, Or, TRUE, Var
from qraise.parsing import parse_qbf
from qraise.planning import (
    Action,
    PlanningInstance,
    apply_action,
    base_reduction,
    executable,
    initial_state,
    parse_instance,
    plan_exists,
    raise_existential,
    raise_universal,
    reduce_qbf,
    serialize_instance,
    substitute_fluent,
    validate_plan,
)
from qraise.qbf import qbf_valid

A, X, Y = Var("a"), Var("x"), Var("y")


class TestActionSemantics:
    def test_unconditional_set(self):
        act = Action("set-a", TRUE, (("a", True),))
        state = {"a": False, "x": False}
        assert executable(act, state) is True
        assert apply_action(act, state) == {"a": True, "x": False}

    def test_unsatisfied_precondition(self):
        act = Action("needs-x", X, (("a", True),))
        assert executable(act, {"a": False, "x": False}) is False

    def test_flip_action(self):
        act = Action("flip", And(A, X), (("x", False), ("a", False)))
        state = {"a": True, "x": True, "b": True}
        assert executable(act, state) is True
        assert apply_action(act, state) == {"a": False, "x": False, "b": True}

    def test_duplicate_effect_rejected(self):
        with pytest.raises(ContractError):
            Action("dup", TRUE, (("a", True), ("a", False)))


class TestPlanExists:
    def test_true_matrix_single_step(self):
        found, plan = plan_exists(base_reduction(TRUE))
        assert found is True
        assert plan == ("apply-matrix",)

    def test_false_matrix(self):
        found, plan = plan_exists(base_reduction(FALSE))
        assert found is False and plan is None

    def test_goal_true_initially_gives_empty_plan(self):
        inst = PlanningInstance(("a",), frozenset({"a"}), "a", (Action("noop", TRUE, ()),), "noop")
        found, plan = plan_exists(inst)
        assert found is True and plan == ()

    def test_positive_variable_is_stuck_false(self):
        assert plan_exists(base_reduction(X))[0] is False

    def test_negative_variable_holds_initially(self):
        assert plan_exists(base_reduction(Not(X)))[0] is True

    def test_fluent_cap(self):
        fluents = tuple(f"f{i}" for i in range(19))
        inst = PlanningInstance(fluents, frozenset(), "f0", (Action("m", TRUE, (("f0", True),)),), "m")
        with pytest.raises(ResourceLimitError):
            plan_exists(inst)


class TestBaseReduction:
    def test_shape(self):
        inst = base_reduction(Or(X, Y))
        assert inst.fluents == ("x", "y", "a")
        assert inst.initial == frozenset()
        assert inst.goal == "a"
        assert inst.matrix_action == "apply-matrix"

    def test_reserved_names_rejected(self):
        with pytest.raises(ContractError):
            base_reduction(Var("a"))
        with pytest.raises(ContractError):
            base_reduction(Var("_p1"))


class TestRaiseExistential:
    def test_choosable_positive(self):
        assert plan_exists(raise_existential(base_reduction(X), "x", 1))[0] is True

    def test_choosable_negative(self):
        assert plan_exists(raise_existential(base_reduction(Not(X)), "x", 1))[0] is True

    def test_unsatisfiable_matrix(self):
        inst = raise_existential(base_reduction(And(X, Not(X))), "x", 1)
        assert plan_exists(inst)[0] is False

    def test_choice_is_one_shot(self):
        inst = raise_existential(base_reduction(X), "x", 1)
        state = initial_state(inst)
        choose = next(a for a in inst.actions if a.name == "choose-x-true")
        state = apply_action(choose, state)
        assert not executable(choose, state)

    def test_unknown_fluent_rejected(self):
        with pytest.raises(ContractError):
            raise_existential(base_reduction(X), "z", 1)


class TestRaiseUniversal:
    def test_tautology_passes_both_branches(self):
        assert plan_exists(raise_universal(base_reduction(Or(X, Not(X))), "x", 1))[0] is True

    def test_positive_matrix_fails_false_branch(self):
        assert plan_exists(raise_universal(base_reduction(X), "x", 1))[0] is False

    def test_negative_matrix_fails_true_branch(self):
        assert plan_exists(raise_universal(base_reduction(Not(X)), "x", 1))[0] is False

    def test_goal_moves_to_done_flag(self):
        raised = raise_universal(base_reduction(Or(X, Not(X))), "x", 1)
        assert raised.goal == "_b1"
        setters = [
            act for act in raised.actions if any(e == ("_b1", True) for e in act.effects)
        ]
        assert [act.name for act in setters] == ["finish-x"]

    def test_flip_resets_inner_controls(self):
        inner = raise_existential(base_reduction(Or(X, Y)), "y", 1)
        raised = raise_universal(inner, "x", 2)
        flip = next(act for act in raised.actions if act.name == "flip-x")
        assert set(flip.effects) == {("x", False), ("a", False), ("_p1", False)}

    def test_goal_set_twice_rejected(self):
        inst = PlanningInstance(
            ("x", "a"),
            frozenset(),
            "a",
            (Action("m1", X, (("a", True),)), Action("m2", Not(X), (("a", True),))),
            "m1",
        )
        with pytest.raises(ContractError, match="exactly one"):
            raise_universal(inst, "x", 1)


class TestNestedRegressions:
    def test_forall_forall_positive_variable_is_rejected(self):
        # without the flip-time resets a stale goal flag would accept this
        q = parse_qbf("forall x; forall y; : x")
        assert plan_exists(reduce_qbf(q))[0] is False

    def test_forall_exists_biconditional_is_accepted(self):
        # requires re-choosing the inner existential after the flip
        q = parse_qbf("forall x; exists y; : x <-> y")
        assert plan_exists(reduce_qbf(q))[0] is True

    def test_exists_forall_biconditional_is_rejected(self):
        q = parse_qbf("exists x; forall y; : x <-> y")
        assert plan_exists(reduce_qbf(q))[0] is False

    def test_empty_prefix_true(self):
        assert plan_exists(reduce_qbf(parse_qbf(": true")))[0] is True

    def test_unused_prefix_variable_gets_a_fluent(self):
        q = parse_qbf("forall x; forall y; : y")
        inst = reduce_qbf(q)
        assert "x" in inst.fluents
        assert plan_exists(inst)[0] is False


def test_merge_properties_on_random_prefixes():
    """OR-merge for existential raises, AND-merge for universal raises."""
    from qraise.planning import GOAL_VAR, base_instance
    from qraise.qbf import Quantifier

    rng = random.Random(91)
    for _ in range(60):
        n = rng.randint(1, 3)
        names = [f"x{i+1}" for i in range(n)]
        matrix = _random_matrix(rng, names, 2)
        quants = [rng.choice("EA") for _ in names]
        inst = base_instance(matrix, names + [GOAL_VAR])
        for k, (q, name) in enumerate(zip(reversed(quants[1:]), reversed(names[1:])), start=1):
            if q == "E":
                inst = raise_existential(inst, name, k)
            else:
                inst = raise_universal(inst, name, k)
        pivot = names[0]
        on_true = plan_exists(substitute_fluent(inst, pivot, True))[0]
        on_false = plan_exists(substitute_fluent(inst, pivot, False))[0]
        if quants[0] == "E":
            raised = raise_existential(inst, pivot, n)
            assert plan_exists(raised)[0] == (on_true or on_false)
        else:
            raised = raise_universal(inst, pivot, n)
            assert plan_exists(raised)[0] == (on_true and on_false)


def _random_matrix(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(names))
    if rng.random() < 0.25:
        return Not(_random_matrix(rng, names, depth - 1))
    ctor = rng.choice([And, Or, Iff])
    return ctor(_random_matrix(rng, names, depth - 1), _random_matrix(rng, names, depth - 1))


def test_five_variable_alternations_spot_check():
    """A handful of deeper alternations, against the validity oracle."""
    rng = random.Random(55)
    names = [f"x{i+1}" for i in range(5)]
    for _ in range(25):
        from qraise.qbf import Qbf, Quantifier

        prefix = tuple(
            (Quantifier.EXISTS if rng.random() < 0.5 else Quantifier.FORALL, n) for n in names
        )
        q = Qbf(prefix, _random_matrix(rng, names, 3))
        assert plan_exists(reduce_qbf(q))[0] == qbf_valid(q)


class TestPlanValidation:
    def test_returned_plans_replay(self):
        for text in (": true", "exists x; : x", "forall x; exists y; : x <-> y",
                     "exists x; forall y; : x | y"):
            inst = reduce_qbf(parse_qbf(text))
            found, plan = plan_exists(inst)
            if found:
                assert validate_plan(inst, plan)

    def test_tampered_plan_fails(self):
        inst = reduce_qbf(parse_qbf("exists x; : x"))
        found, plan = plan_exists(inst)
        assert found
        assert not validate_plan(inst, plan + ("no-such-action",))
        assert not validate_plan(inst, plan[:-1])


class TestSubstituteFluent:
    def test_substitutes_and_drops(self):
        inst = base_reduction(Or(X, Y))
        fixed = substitute_fluent(inst, "x", True)
        assert "x" not in fixed.fluents
        assert fixed.actions[0].precondition == Or(TRUE, Y)

    def test_written_fluent_rejected(self):
        inst = raise_existential(base_reduction(X), "x", 1)
        with pytest.raises(ContractError):
            substitute_fluent(inst, "x", True)

    def test_goal_rejected(self):
        with pytest.raises(ContractError):
            substitute_fluent(base_reduction(X), "a", True)


class TestInstanceFormat:
    def test_round_trip(self):
        inst = reduce_qbf(parse_qbf("forall x; exists y; : x <-> y"))
        assert parse_instance(serialize_instance(inst)) == inst

    def test_matrix_action_is_first(self):
        inst = reduce_qbf(parse_qbf("exists x; : x"))
        first = serialize_instance(inst).splitlines()[3]
        assert first.startswith("action apply-matrix:")

    def test_bad_lines(self):
        with pytest.raises(Exception):
            parse_instance("fluents: a\ninit: a=2\ngoal: a\naction m: true => a\n")
        with pytest.raises(Exception):
            parse_instance("nonsense\n")
