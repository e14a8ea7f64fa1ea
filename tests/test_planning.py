"""Action semantics, exact plan search, and the two raising gadgets."""

import copy
import pickle
import random
from collections import deque
from dataclasses import FrozenInstanceError, make_dataclass

import pytest

from qraise import planning, qbf
from qraise.cli import main
from qraise.errors import ContractError, ParseError, ResourceLimitError
from qraise.formulas import And, Const, FALSE, Iff, Implies, Not, Or, TRUE, Var
from qraise.formulas import conjunction, truth_table, universe, variables
from qraise.harness import exhaustive_qbfs
from qraise.parsing import parse_formula, parse_qbf
from qraise.planning import (
    GOAL_VAR,
    Action,
    PlanningInstance,
    apply_action,
    base_instance,
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
from qraise.qbf import Qbf, Quantifier, qbf_valid, qbf_valid_by_table, raise_prefix
from qraise.qbf import random_matrix

A, X, Y = Var("a"), Var("x"), Var("y")

# The widest instances the references below tabulate whole: 2^18 states.
WIDE = 18


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
        dup = Action("dup", TRUE, (("a", True), ("a", False)))
        inst = PlanningInstance(("a",), frozenset(), "a", (dup,))
        for decide in (planning.check_instance, plan_exists, lambda i: validate_plan(i, ["dup"])):
            with pytest.raises(ContractError, match="^action 'dup' writes a fluent twice$"):
                decide(inst)

    def test_actions_behave_like_the_frozen_dataclass(self):
        fields = [("name", str), ("precondition", object), ("effects", tuple)]
        Reference = make_dataclass("Action", fields, frozen=True, slots=True)
        effects = [(), (("a", True),), (("a", True), ("x", False))]
        made = [
            (Action(name, pre, eff), Reference(name, pre, eff))
            for name in ("m", "n") for pre in (X, Not(X), TRUE) for eff in effects
        ]
        for act, ref in made:
            assert hash(act) == hash(ref) and repr(act) == repr(ref)
            assert act.__match_args__ == ref.__match_args__
            assert act.__eq__(ref) is NotImplemented
            for other, other_ref in made:
                assert (act == other) is (ref == other_ref)
            copies = [copy.copy(act), copy.deepcopy(act)] + [
                pickle.loads(pickle.dumps(act, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
            ]
            for copied in copies:
                assert copied == act and hash(copied) == hash(act) and repr(copied) == repr(act)
            for name in act.__match_args__:
                with pytest.raises(FrozenInstanceError):
                    setattr(act, name, TRUE)
                with pytest.raises(FrozenInstanceError):
                    delattr(act, name)


class TestPlanExists:
    def test_true_matrix_single_step(self):
        found, plan = plan_exists(base_reduction(TRUE))
        assert found is True
        assert plan == ("apply-matrix",)

    def test_false_matrix(self):
        found, plan = plan_exists(base_reduction(FALSE))
        assert found is False and plan is None

    def test_goal_true_initially_gives_empty_plan(self):
        inst = PlanningInstance(("a",), frozenset({"a"}), "a", (Action("noop", TRUE, ()),))
        found, plan = plan_exists(inst)
        assert found is True and plan == ()

    def test_positive_variable_is_stuck_false(self):
        assert plan_exists(base_reduction(X))[0] is False

    def test_negative_variable_holds_initially(self):
        assert plan_exists(base_reduction(Not(X)))[0] is True

    def test_state_cap(self, monkeypatch):
        assert planning.STATE_CAP == 2**18
        monkeypatch.setattr(planning, "STATE_CAP", 8)
        # three setters reach exactly the 8 states the cap allows
        assert plan_exists(_setters(3)) == (False, None)
        # a fourth stops at the 9th state, every time
        for _ in range(2):
            with pytest.raises(ResourceLimitError, match="^9 states exceed STATE_CAP=8$"):
                plan_exists(_setters(4))


def _setters(count):
    """``count`` one-shot setters ``!fi => fi``, which reach 2^count states,
    and a finish action that needs every ``fi`` and the goal ``g`` it sets,
    so it never fires."""
    fluents = [f"f{i}" for i in range(count)]
    actions = [Action(f"set-{name}", Not(Var(name)), ((name, True),)) for name in fluents]
    needs = conjunction([Var(name) for name in [*fluents, "g"]])
    actions.append(Action("finish", needs, (("g", True),)))
    return PlanningInstance((*fluents, "g"), frozenset(), "g", tuple(actions))


MANY_FLUENTS = " ".join(f"f{i}" for i in range(19))


class TestCheckInstance:
    """Building an instance checks nothing; the deciders check it first. A
    file names its unknown init: and goal: fluents, and a repeated fluent or
    action name, at their place, as a parse error, before any instance is
    built."""

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "fluents: x x a\ngoal: a\naction m: x => a\n",
                "error[parse]: fluents: names 'x' twice (line 1, column 12)",
            ),
            (
                "fluents: x a\ngoal: b\naction m: x => a\n",
                "error[parse]: goal: names unknown fluent 'b' (line 2, column 7)",
            ),
            (
                "fluents: x a\ninit: z=1\ngoal: a\naction m: x => a\n",
                "error[parse]: init: names unknown fluent 'z' (line 2, column 7)",
            ),
            (
                "fluents: x a\ngoal: a\naction m: x => a\naction m: !x => a\n",
                "error[parse]: second action named 'm' (line 4, column 8)",
            ),
            ("fluents: x a\ngoal: a\naction m: x & z => a\n", "action 'm' mentions unknown fluents: z"),
            ("fluents: x a\ngoal: a\naction m: x => a w\n", "action 'm' mentions unknown fluents: w"),
            # a double write is named before the same action's unknown names
            ("fluents: x a\ngoal: a\naction m: z => w !w\n", "action 'm' writes a fluent twice"),
            # 20 fluents: the contract error comes before any search
            (
                f"fluents: {MANY_FLUENTS} a\ngoal: a\naction m: f1 => a\naction n: f2 & z => a\n",
                "action 'n' mentions unknown fluents: z",
            ),
        ],
    )
    def test_solve_prints_one_contract_line(self, monkeypatch, capsys, tmp_path, text, message):
        # a search would stop at its second state: each error comes first
        monkeypatch.setattr(planning, "STATE_CAP", 1)
        path = tmp_path / "bad.plan"
        path.write_text(text, encoding="utf-8")
        assert main(["solve", "--target", "planning", str(path)]) == 2
        captured = capsys.readouterr()
        line = message if message.startswith("error[") else f"error[contract]: {message}"
        assert (captured.out, captured.err) == ("", f"{line}\n")

    def test_loose_names_are_listed_sorted_for_the_first_action_at_fault(self):
        inst = PlanningInstance(
            ("x", "a"),
            frozenset(),
            "a",
            (
                Action("m1", X, (("a", True),)),
                Action("m2", Or(Var("z"), And(X, Var("y"))), (("a", True),)),
                Action("m3", Var("w"), (("a", True),)),
            ),
        )
        with pytest.raises(ContractError) as caught:
            planning.check_instance(inst)
        assert str(caught.value) == "action 'm2' mentions unknown fluents: y, z"

    def test_unknown_initial_fluents_are_named_sorted(self):
        inst = PlanningInstance(
            ("a", "b"), frozenset({"a", "d", "c"}), "a", (Action("m", Var("b"), (("a", True),)),)
        )
        with pytest.raises(ContractError) as caught:
            planning.check_instance(inst)
        assert str(caught.value) == "initial state mentions unknown fluents: c, d"

    def test_a_repeated_fluent_is_rejected(self):
        inst = PlanningInstance(("a", "a"), frozenset(), "a", (Action("m", TRUE, (("a", True),)),))
        with pytest.raises(ContractError, match="^duplicate fluent names$"):
            planning.check_instance(inst)

    def test_an_unknown_goal_is_named(self):
        inst = PlanningInstance(("a",), frozenset(), "x", (Action("m", TRUE, (("a", True),)),))
        with pytest.raises(ContractError, match="^goal 'x' is not a fluent$"):
            planning.check_instance(inst)

    def test_an_effect_on_an_unknown_fluent_is_named(self):
        inst = PlanningInstance(
            ("x", "a"),
            frozenset(),
            "a",
            (Action("m1", X, (("a", True),)), Action("m2", Not(X), (("a", True), ("w", False)))),
        )
        with pytest.raises(ContractError) as caught:
            planning.check_instance(inst)
        assert str(caught.value) == "action 'm2' mentions unknown fluents: w"

    def test_raise_onto_a_taken_action_name(self):
        inst = PlanningInstance(
            ("x", "a"),
            frozenset(),
            "a",
            (Action("m", X, (("a", True),)), Action("enter-x", TRUE, ())),
        )
        raised = raise_universal(inst, "x", 1)
        with pytest.raises(ContractError, match="^duplicate action names$"):
            plan_exists(raised)

    def test_validate_plan_rejects_what_check_instance_rejects(self, monkeypatch):
        """``validate_plan`` checks an instance by its own walk, which builds
        no split, and rejects each instance with ``check_instance``'s
        message, faults in several places included."""
        rng = random.Random(23)

        def outcome(check, instance):
            try:
                check(instance)
            except ContractError as error:
                return str(error)
            return None

        made = []
        for _ in range(400):
            instance = _random_instance(rng, rng.randint(1, 5))
            fluents, initial, goal = instance.fluents, set(instance.initial), instance.goal
            actions = list(instance.actions)
            for _ in range(rng.randint(0, 3)):
                fault = rng.randrange(7)
                k = rng.randrange(len(actions))
                act = actions[k]
                if fault == 0:
                    fluents += (rng.choice(fluents),)
                elif fault == 1:
                    goal = "zg"
                elif fault == 2:
                    initial |= {"zi", rng.choice(["zj", *fluents])}
                elif fault == 3:
                    actions.append(Action(act.name, TRUE, ()))
                elif fault == 4:
                    actions[k] = Action(act.name, act.precondition, act.effects + act.effects[:1])
                elif fault == 5:
                    loose = rng.choice([Var("zp"), Not(Var("zq")), Or(Var("zr"), Var(fluents[0]))])
                    actions[k] = Action(act.name, And(act.precondition, loose), act.effects)
                else:
                    actions[k] = Action(act.name, act.precondition, act.effects + (("ze", False),))
            made.append(PlanningInstance(fluents, frozenset(initial), goal, tuple(actions)))
        expected = [outcome(planning.check_instance, instance) for instance in made]
        monkeypatch.setattr(planning, "check_instance", lambda i: pytest.fail("a split"))
        assert [outcome(lambda i: validate_plan(i, ()), i) for i in made] == expected
        assert 20 <= expected.count(None) <= 380

    def test_reduction_walks_no_precondition(self, monkeypatch):
        walked = []
        monkeypatch.setattr(planning, "variables", lambda f: walked.append(f))
        q = parse_qbf(
            "exists x1; forall x2; exists x3; forall x4; exists x5; forall x6;"
            " : (x1 | x2) & (x3 <-> x4) | x5 & !x6"
        )
        assert len(reduce_qbf(q).actions) == 1 + 2 * 3 + 3 * 3
        assert walked == []


class TestBaseReduction:
    def test_shape(self):
        inst = base_reduction(Or(X, Y))
        assert inst.fluents == ("x", "y", "a")
        assert inst.initial == frozenset()
        assert inst.goal == "a"
        assert inst.actions[0].name == "apply-matrix"

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


def _prefixes(rng, n):
    """All-exists, all-forall, alternating and random prefixes over n names."""
    names = [f"x{i + 1}" for i in range(n)]
    both = (Quantifier.EXISTS, Quantifier.FORALL)
    shapes = [
        [both[0]] * n,
        [both[1]] * n,
        [both[i % 2] for i in range(n)],
        [both[1 - i % 2] for i in range(n)],
        [rng.choice(both) for _ in range(n)],
    ]
    return names, [tuple(zip(quants, names)) for quants in shapes]


class TestOnePassReduction:
    """``reduce_qbf`` builds in one pass what the public raises build one at a time."""

    def test_equals_the_fold_of_the_public_raises(self):
        rng = random.Random(8)
        for n in range(9):
            for _ in range(6):
                names, prefixes = _prefixes(rng, n)
                matrix = _random_matrix(rng, names, 3) if names else rng.choice([TRUE, FALSE])
                for prefix in prefixes:
                    q = Qbf(prefix, matrix)
                    fold = raise_prefix(
                        base_instance(matrix, names + [GOAL_VAR]), prefix, planning.RAISES
                    )
                    reduced = reduce_qbf(q)
                    assert reduced == fold
                    assert serialize_instance(reduced) == serialize_instance(fold)

    @pytest.mark.parametrize(
        "names,message",
        [
            (["a"], "prefix uses the reserved goal name 'a'"),
            (["x", "a"], "prefix uses the reserved goal name 'a'"),
            (["_p1", "x"], "prefix uses reserved names: _p1"),
            (["_z", "x", "_b2"], "prefix uses reserved names: _b2, _z"),
        ],
    )
    def test_reserved_prefix_names(self, names, message):
        # the parser refuses '_' names, so the QBFs are built directly
        quants = (Quantifier.FORALL, Quantifier.EXISTS)
        prefix = tuple((quants[i % 2], name) for i, name in enumerate(names))
        matrix = Var(names[0])
        for name in names[1:]:
            matrix = Or(matrix, Var(name))
        with pytest.raises(ContractError) as caught:
            reduce_qbf(Qbf(prefix, matrix))
        assert str(caught.value) == message


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

    @pytest.mark.parametrize(
        "text,message,line,column",
        [
            ("fluents: a\ninit: a=1 a=1\ngoal: a\n", "init: names 'a' twice", 2, 11),
            ("fluents: a\ninit: a=0\n init: a=1\ngoal: a\n", "second 'init:' line", 3, 2),
            ("fluents: a  m a\ngoal: a\n", "fluents: names 'a' twice", 1, 15),
            ("fluents: a\ngoal: a\naction m: !a => a\n", "second action named 'm'", 4, 8),
        ],
    )
    def test_a_repeated_item_is_a_parse_error(self, text, message, line, column):
        with pytest.raises(ParseError) as caught:
            parse_instance(text + "action m: true => a\n")
        error = caught.value
        assert (error.message, error.line, error.column) == (message, line, column)

    @pytest.mark.parametrize("header,found", [("", ""), ("foo bar", "foo bar"), ("  m.1 ", "m.1")])
    def test_an_action_header_is_one_name(self, header, found):
        with pytest.raises(ParseError) as caught:
            parse_instance(f"fluents: a\ngoal: a\naction {header}: true => a\n")
        error = caught.value
        message = f"expected one action name, found {found!r}"
        assert (error.message, error.line, error.column) == (message, 3, 8)

    def test_only_a_newline_ends_a_line(self):
        """As in a QBF file, a form feed and U+2028 in a formula are
        whitespace, and an error after them names the line counted by '\\n'."""
        text = "fluents: f g\ngoal: g\naction a: !f \f& \u2028!g => g\n"
        (action,) = parse_instance(text).actions
        assert action.precondition == parse_formula("!f & !g")
        with pytest.raises(ParseError) as caught:
            parse_instance(text + "action b: f \f& \u2028% => g\n")
        error = caught.value
        assert (error.message, error.line, error.column) == ("unexpected character '%'", 4, 17)

    def test_unknown_names_are_found_in_reading_order(self):
        text = "goal: b\nfluents: a m\ninit: a=0 z=1\naction m: m => a\n"
        with pytest.raises(ParseError) as caught:
            parse_instance(text)
        error = caught.value
        assert (error.message, error.line, error.column) == ("goal: names unknown fluent 'b'", 1, 7)

    def test_init_may_name_a_goal_read_before_it(self):
        text = "goal: a\nfluents: a m\ninit: a=0 m=1\naction m: m => a\n"
        assert parse_instance(text).initial == frozenset({"m"})


def _table_plan_exists(instance):
    """The table-based search that compiled preconditions replaced: one
    2^|fluents|-bit truth table per action, looked up at every state."""
    planning.check_instance(instance)
    order, goal_bit, start, effects = _compiled(instance)
    width = len(order)
    compiled = [
        (idx, truth_table(act.precondition, order, width), set_mask, clear_mask)
        for (idx, set_mask, clear_mask), act in zip(effects, instance.actions)
    ]

    def successors(state):
        for idx, table, set_mask, clear_mask in compiled:
            if table >> state & 1:
                yield idx, (state | set_mask) & ~clear_mask

    return _breadth_first(instance, start, goal_bit, successors)


def _literal_test(precondition, order):
    """The references' own compile step: ``(must_set, must_clear, gather,
    table)``. The literal conjuncts of the top-level ``And`` tree become the
    masks, and the rest is tabulated over its own variables in fluent
    order; ``gather`` moves state bit ``position`` to table index bit ``i``
    for each ``(i, position)``, one bit at a time."""
    must_set = must_clear = 0
    rest = []
    stack = [precondition]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack += [node.right, node.left]
        elif isinstance(node, Var):
            must_set |= 1 << order[node.name]
        elif isinstance(node, Not) and isinstance(node.operand, Var):
            must_clear |= 1 << order[node.operand.name]
        else:
            rest.append(node)
    if not rest:
        return must_set, must_clear, (), 1
    remainder = conjunction(rest)
    u = universe(sorted(variables(remainder), key=order.__getitem__))
    gather = tuple((i, order[name]) for name, i in u.order.items())
    return must_set, must_clear, gather, truth_table(remainder, u.order, u.width)


def _gathered(state, gather):
    index = 0
    for i, position in gather:
        index |= (state >> position & 1) << i
    return index


def _compiled(instance):
    """The fluent order, goal bit, start state, and each action's index and
    effect masks."""
    order = {name: i for i, name in enumerate(instance.fluents)}
    effects = []
    for idx, act in enumerate(instance.actions):
        set_mask = 0
        clear_mask = 0
        for name, value in act.effects:
            if value:
                set_mask |= 1 << order[name]
            else:
                clear_mask |= 1 << order[name]
        effects.append((idx, set_mask, clear_mask))
    start = sum(1 << order[name] for name in instance.initial)
    return order, 1 << order[instance.goal], start, effects


def _literal_tests(instance):
    """``_compiled``, with each action's ``_literal_test`` between its index
    and its effect masks."""
    order, goal_bit, start, effects = _compiled(instance)
    compiled = [
        (idx, *_literal_test(act.precondition, order), set_mask, clear_mask)
        for (idx, set_mask, clear_mask), act in zip(effects, instance.actions)
    ]
    return goal_bit, start, compiled


def _breadth_first(instance, start, goal_bit, successors):
    """Breadth-first search from ``start``; ``successors(state)`` yields
    ``(idx, successor)`` in action order. Returns ``plan_exists``'s result."""
    parents = {}
    seen = {start}
    frontier = deque([start])
    goal_state = start if start & goal_bit else None
    while frontier and goal_state is None:
        state = frontier.popleft()
        for idx, successor in successors(state):
            if successor in seen:
                continue
            seen.add(successor)
            parents[successor] = (state, idx)
            if successor & goal_bit:
                goal_state = successor
                break
            frontier.append(successor)
    if goal_state is None:
        return False, None
    steps = []
    cursor = goal_state
    while cursor != start:
        cursor, idx = parents[cursor]
        steps.append(instance.actions[idx].name)
    return True, tuple(reversed(steps))


def _mask_plan_exists(instance):
    """The search that memoized literal tests replaced: every action's two
    literal masks and remainder table, tested at every popped state."""
    planning.check_instance(instance)
    goal_bit, start, compiled = _literal_tests(instance)

    def successors(state):
        for idx, must_set, must_clear, gather, table, set_mask, clear_mask in compiled:
            if state & must_set != must_set or state & must_clear:
                continue
            if table >> _gathered(state, gather) & 1:
                yield idx, (state | set_mask) & ~clear_mask

    return _breadth_first(instance, start, goal_bit, successors)


def _memo_plan_exists(instance):
    """The memoized search that gather runs replaced: the actions passing
    the literal tests are listed once per ``state & lit_mask``, and each
    remainder's index is gathered one bit at a time."""
    planning.check_instance(instance)
    goal_bit, start, compiled = _literal_tests(instance)
    live = [entry for entry in compiled if not entry[1] & entry[2] and entry[4]]
    lit_mask = 0
    for _, must_set, must_clear, *_ in live:
        lit_mask |= must_set | must_clear
    passing = {}

    def successors(state):
        key = state & lit_mask
        if key not in passing:
            passing[key] = [
                (idx, gather, table, set_mask, clear_mask)
                for idx, must_set, must_clear, gather, table, set_mask, clear_mask in live
                if key & (must_set | must_clear) == must_set
            ]
        for idx, gather, table, set_mask, clear_mask in passing[key]:
            if table >> _gathered(state, gather) & 1:
                yield idx, (state | set_mask) & ~clear_mask

    return _breadth_first(instance, start, goal_bit, successors)


def _assert_matches_table_reference(instance):
    """On a reduction, ``plan_exists`` returns the breadth-first reference's
    answer and plan."""
    found, plan = plan_exists(instance)
    assert (found, plan) == _table_plan_exists(instance)
    if found:
        assert validate_plan(instance, plan)
        # the depth-first plan equals the breadth-first one, so on a
        # reduction it is shortest too: no proper prefix reaches the goal
        assert not plan or not validate_plan(instance, plan[:-1])
    return found, plan


def _assert_agrees_with(reference, instance):
    """On a general instance, ``plan_exists`` gives ``reference``'s answer,
    and a plan that replays and is no shorter than ``reference``'s, which
    is shortest: a depth-first plan may be longer."""
    found, plan = plan_exists(instance)
    shortest = reference(instance)
    assert found is shortest[0]
    if found:
        assert validate_plan(instance, plan)
        assert len(plan) >= len(shortest[1])
    else:
        assert plan is None
    return found, plan


def _literal(rng, fluents):
    var = Var(rng.choice(fluents))
    return var if rng.random() < 0.5 else Not(var)


def _compound(rng, fluents, depth=2):
    """A conjunct that is not a literal: Or, Implies, Iff, a constant, or a
    negated compound."""
    roll = rng.random()
    if roll < 0.1:
        return Const(rng.random() < 0.5)
    if roll < 0.25:
        return Not(rng.choice([And, Or, Iff])(_literal(rng, fluents), _literal(rng, fluents)))
    if roll < 0.3:
        return Not(Not(Var(rng.choice(fluents))))
    sides = [
        _compound(rng, fluents, depth - 1) if depth and rng.random() < 0.3
        else _literal(rng, fluents)
        for _ in range(2)
    ]
    return rng.choice([Or, Implies, Iff])(*sides)


def _and_tree(rng, conjuncts):
    """Conjoin ``conjuncts`` under a random tree of ``And`` nodes."""
    parts = list(conjuncts)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [And(parts[i], parts[i + 1])]
    return parts[0]


def _random_precondition(rng, fluents):
    roll = rng.random()
    literals = [_literal(rng, fluents) for _ in range(rng.randint(0, 2))]
    if literals and rng.random() < 0.2:
        literals.append(rng.choice(literals))  # repeated literal
    if literals and rng.random() < 0.1:
        first = literals[0]
        literals.append(first.operand if isinstance(first, Not) else Not(first))  # x & !x
    if roll < 0.4:
        conjuncts = literals
    elif roll < 0.7:
        conjuncts = literals + [_compound(rng, fluents)]
    else:
        # no literal conjunct at all
        conjuncts = [_compound(rng, fluents) for _ in range(rng.randint(1, 2))]
    rng.shuffle(conjuncts)
    return _and_tree(rng, conjuncts) if conjuncts else TRUE


def _conjuncts(f):
    return _conjuncts(f.left) + _conjuncts(f.right) if isinstance(f, And) else [f]


def _is_literal(f):
    return isinstance(f, Var) or isinstance(f, Not) and isinstance(f.operand, Var)


def _random_instance(rng, width):
    fluents = tuple(f"f{i}" for i in range(width))
    goal = rng.choice(fluents)
    initial = {f for f in fluents if rng.random() < 0.4}
    actions = []
    for k in range(rng.randint(2, 7)):
        written = rng.sample(fluents, rng.randint(1, min(3, width)))
        effects = tuple((name, rng.random() < 0.6) for name in written)
        actions.append(Action(f"act{k}", _random_precondition(rng, fluents), effects))
    if width > 3 and rng.random() < 0.4:
        # a chain of steps f0 -> f1 -> ... -> goal, so some plans are long
        goal = fluents[-1]
        initial = {fluents[0]} | {f for f in initial if rng.random() < 0.3}
        actions = [
            Action(a.name, a.precondition, tuple(e for e in a.effects if e[0] != goal))
            for a in actions
        ]
        for k in range(width - 1):
            extra = _random_precondition(rng, fluents) if rng.random() < 0.3 else TRUE
            step = ((fluents[k + 1], True),) + ((fluents[k], False),) * (rng.random() < 0.5)
            actions.append(Action(f"step{k}", And(Var(fluents[k]), extra), step))
    if width == WIDE:
        # one precondition over every fluent
        wide = Or(_and_tree(rng, [_literal(rng, [f]) for f in fluents]), Var(fluents[0]))
        actions[-1] = Action(actions[-1].name, wide, actions[-1].effects)
    initial = initial | {goal} if rng.random() < 0.1 else initial - {goal}
    return PlanningInstance(fluents, frozenset(initial), goal, tuple(actions))


def test_search_matches_table_reference_on_the_exhaustive_sweep():
    found = [
        _assert_matches_table_reference(reduce_qbf(q))[0] for q in exhaustive_qbfs(3, 3, "any")
    ]
    assert 0 < sum(found) < len(found)


def test_search_matches_table_reference_on_general_instances():
    rng = random.Random(2024)
    seen = dict.fromkeys(
        ["found", "missed", "three steps", "goal at start", "no literal", "x & !x"], 0
    )
    for n in range(320):
        instance = _random_instance(rng, WIDE if n % 40 == 0 else rng.randint(1, 7))
        found, plan = _assert_agrees_with(_table_plan_exists, instance)
        seen["found" if found else "missed"] += 1
        seen["three steps"] += found and len(plan) >= 3
        seen["goal at start"] += instance.goal in instance.initial
        for act in instance.actions:
            literals = [c for c in _conjuncts(act.precondition) if _is_literal(c)]
            seen["no literal"] += not literals and act.precondition != TRUE
            seen["x & !x"] += any(Not(c) in literals for c in literals)
    assert min(seen.values()) >= 15, sorted(seen.items())


def _cap_shape_reduction(rng):
    """A 7-variable alternating prefix (18 fluents) over a random matrix."""
    names = [f"x{i + 1}" for i in range(7)]
    prefix = tuple(
        (Quantifier.EXISTS if i % 2 == 0 else Quantifier.FORALL, name)
        for i, name in enumerate(names)
    )
    instance = reduce_qbf(Qbf(prefix, _random_matrix(rng, names, 4)))
    assert len(instance.fluents) == 18
    return instance


def _matches_mask_reference(instance):
    found, plan = plan_exists(instance)
    assert (found, plan) == _mask_plan_exists(instance) == _memo_plan_exists(instance)
    return found


def _runs(gather):
    """How many runs of adjacent fluent bits ``gather`` reads."""
    positions = [position for _, position in gather]
    return len(positions) and 1 + sum(b != a + 1 for a, b in zip(positions, positions[1:]))


class TestMemoizedLiteralTests:
    """``plan_exists`` reuses each literal test per ``state & lit_mask`` and
    gathers each table index in runs of adjacent bits. The per-state search
    and the memoized search that gathers one bit at a time are its
    references. They search breadth-first and give the same plans as each
    other, and on reductions as ``plan_exists``."""

    def test_matches_the_mask_reference_on_the_exhaustive_sweep(self):
        found = [_matches_mask_reference(reduce_qbf(q)) for q in exhaustive_qbfs(3, 3, "any")]
        assert 0 < sum(found) < len(found)

    def test_matches_the_mask_reference_on_general_instances(self):
        rng = random.Random(2024)
        runs = dict.fromkeys([1, 2, 3], 0)
        for n in range(320):
            instance = _random_instance(rng, WIDE if n % 40 == 0 else rng.randint(1, 7))
            _assert_agrees_with(_mask_plan_exists, instance)
            assert _mask_plan_exists(instance) == _memo_plan_exists(instance)
            order = {name: i for i, name in enumerate(instance.fluents)}
            for act in instance.actions:
                count = _runs(_literal_test(act.precondition, order)[2])
                if count:
                    runs[min(count, 3)] += 1
        # remainders that read scattered fluents, so their index takes several runs
        assert min(runs.values()) >= 20, runs

    def test_matches_the_mask_reference_on_cap_shape_reductions(self):
        rng = random.Random(4243)
        found = [_matches_mask_reference(_cap_shape_reduction(rng)) for _ in range(200)]
        assert 20 <= sum(found) <= 180

    def test_contradictory_actions_never_fire(self):
        inst = PlanningInstance(
            ("x", "a"),
            frozenset({"x"}),
            "a",
            (
                Action("x-and-not-x", And(X, Not(X)), (("a", True),)),
                Action("true-and-false", And(TRUE, FALSE), (("a", True),)),
            ),
        )
        assert plan_exists(inst) == (False, None) == _mask_plan_exists(inst)

    def test_an_action_sharing_a_dropped_actions_memo_key_still_fires(self):
        # each live action has the same literal test as the dead one before it
        inst = PlanningInstance(
            ("x", "y", "a"),
            frozenset({"x"}),
            "a",
            (
                Action("x-and-not-x", And(X, Not(X)), (("y", True),)),
                Action("x", X, (("y", True),)),
                Action("true-and-false", And(Y, And(TRUE, FALSE)), (("a", True),)),
                Action("y-or-x", And(Y, Or(X, Y)), (("a", True),)),
            ),
        )
        assert plan_exists(inst) == (True, ("x", "y-or-x")) == _mask_plan_exists(inst)


class TestPastEighteenFluents:
    """Alternating-prefix reductions at 8-24 variables have 21-61 fluents:
    ``STATE_CAP`` bounds the states reached, not the fluents, and a valid
    one stops at its goal, so it decides, and each answer is the table
    oracle's. An invalid one reaches every reachable state first, so past
    16 variables it may stop at ``STATE_CAP``, as the 24-variable draw
    does. The oracle's ``QBF_VAR_CAP`` is lifted to the prefix here."""

    @pytest.mark.parametrize("count", [*range(8, 13), 18, 20, 24])
    def test_reductions_agree_with_the_table_oracle(self, monkeypatch, capsys, tmp_path, count):
        monkeypatch.setattr(qbf, "QBF_VAR_CAP", max(qbf.QBF_VAR_CAP, count))
        names = [f"x{i + 1}" for i in range(count)]
        quants = (Quantifier.EXISTS, Quantifier.FORALL)
        prefix = tuple((quants[i % 2], name) for i, name in enumerate(names))
        rng = random.Random(count)
        for valid in (True, False):
            q = Qbf(prefix, random_matrix(rng, names, 5))
            while qbf_valid_by_table(q) is not valid:
                q = Qbf(prefix, random_matrix(rng, names, 5))
            instance = reduce_qbf(q)
            assert len(instance.fluents) > 18
            path = tmp_path / f"{valid}.plan"
            path.write_text(serialize_instance(instance), encoding="utf-8")
            try:
                found, plan = plan_exists(instance)
            except ResourceLimitError as stop:
                assert not valid and count > 16
                assert main(["solve", "--target", "planning", str(path)]) == 3
                assert capsys.readouterr() == ("", f"error[resource]: {stop}\n")
                continue
            assert found is valid
            assert not found or validate_plan(instance, plan)
            assert main(["solve", "--target", "planning", str(path)]) == (0 if valid else 1)
            captured = capsys.readouterr()
            assert captured.err == ""
            assert captured.out == (f"yes plan={' '.join(plan)}\n" if valid else "no\n")


@pytest.mark.parametrize("count", [22, 23])
def test_precondition_cap_names_the_precondition(capsys, tmp_path, count):
    """A matrix whose non-literal conjuncts read more than
    ``ENTAILMENT_VAR_CAP`` variables gives one table too wide: the error
    says it is a precondition's. One variable fewer decides."""
    names = [f"x{i + 1}" for i in range(count)]
    source = tmp_path / "wide.qbf"
    source.write_text(f"exists {' '.join(names)}; : {' | '.join(names)}\n", encoding="utf-8")
    path = tmp_path / "wide.plan"
    assert main(["reduce", "--target", "planning", "-o", str(path), str(source)]) == 0
    code = main(["solve", "--target", "planning", str(path)])
    out, err = capsys.readouterr()
    if count == 22:
        assert (code, out[:9], err) == (0, "yes plan=", "")
        return
    message = "23 precondition variables exceed ENTAILMENT_VAR_CAP=22"
    assert (code, out, err) == (3, "", f"error[resource]: {message}\n")
    with pytest.raises(ResourceLimitError, match=f"^{message}$"):
        plan_exists(reduce_qbf(parse_qbf(source.read_text(encoding="utf-8"))))


def test_solve_checks_the_instance_once(monkeypatch):
    """One ``check_instance`` walk checks and splits every precondition: the
    search compiles from its split, and no other walk gathers a
    precondition's variables."""
    instances = [
        (reduce_qbf(parse_qbf(text)), answer)
        for text, answer in (("exists x; forall y; : x | y", True), ("forall y; : y", False))
    ]
    checks = []
    check = planning.check_instance
    monkeypatch.setattr(planning, "check_instance", lambda i: checks.append(i) or check(i))
    monkeypatch.setattr(planning, "variables", lambda f: pytest.fail("a second walk"))
    for instance, answer in instances:
        checks.clear()
        assert planning.solve(instance)[0] is answer
        assert checks == [instance]
