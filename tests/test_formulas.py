"""Formula AST, substitution, evaluation, and the exact semantic checks."""

import copy
import pickle
import random
import re
from dataclasses import FrozenInstanceError, make_dataclass
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qraise.errors import ContractError, EvaluationError, ResourceLimitError
from qraise.formulas import (
    ENTAILMENT_VAR_CAP,
    And,
    Const,
    FALSE,
    Iff,
    Implies,
    Not,
    Or,
    TRUE,
    Var,
    _Binary,
    _insert,
    _remove,
    _wave,
    check_name,
    conjunction,
    consistent,
    entails,
    evaluate,
    evaluate_reading,
    size,
    substitute,
    truth_table,
    universe,
    variables,
)
from qraise.parsing import serialize_formula

X, Y, A = Var("x"), Var("y"), Var("a")
_BINARY = (And, Or, Implies, Iff)


def formulas(names=("x", "y", "z"), max_leaves=8):
    leaves = st.sampled_from([TRUE, FALSE] + [Var(n) for n in names])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(Iff, sub, sub),
        ),
        max_leaves=max_leaves,
    )


def naive_eval(f, assignment):
    """Independent recursive evaluator used as the test-side oracle."""
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Var):
        return assignment[f.name]
    if isinstance(f, Not):
        return not naive_eval(f.operand, assignment)
    table = {
        And: lambda l, r: l and r,
        Or: lambda l, r: l or r,
        Implies: lambda l, r: (not l) or r,
        Iff: lambda l, r: l == r,
    }
    return table[type(f)](naive_eval(f.left, assignment), naive_eval(f.right, assignment))


def naive_entails(premises, goal):
    names = sorted(set().union(set(), *(variables(f) for f in premises)) | variables(goal))
    for bits in product([False, True], repeat=len(names)):
        assignment = dict(zip(names, bits))
        if all(naive_eval(f, assignment) for f in premises) and not naive_eval(goal, assignment):
            return False
    return True


class TestSubstitute:
    def test_replaces_without_simplifying(self):
        f = Or(And(Y, Not(X)), X)
        assert substitute(f, "x", True) == Or(And(Y, Not(TRUE)), TRUE)

    def test_absent_variable_is_identity(self):
        assert substitute(Y, "x", False) is Y

    def test_replaces_every_occurrence(self):
        assert substitute(Iff(X, X), "x", True) == Iff(TRUE, TRUE)

    @given(formulas(), st.sampled_from(["x", "y", "z"]), st.booleans())
    def test_removes_the_variable(self, f, name, value):
        result = substitute(f, name, value)
        assert name not in variables(result)
        assert variables(result) <= variables(f) - {name}

    @given(formulas(), st.sampled_from(["x", "y"]), st.booleans())
    def test_agrees_with_semantic_restriction(self, f, name, value):
        assignment = {"x": True, "y": False, "z": True}
        assert naive_eval(substitute(f, name, value), assignment) == naive_eval(
            f, {**assignment, name: value}
        )


class TestEvaluate:
    def test_constants(self):
        assert evaluate(And(TRUE, Not(FALSE)), {}) is True

    def test_disjunction(self):
        assert evaluate(Or(X, Y), {"x": False, "y": True}) is True

    def test_implication(self):
        assert evaluate(Implies(X, Y), {"x": True, "y": False}) is False

    def test_unbound_variable_is_named(self):
        with pytest.raises(EvaluationError, match="y"):
            evaluate(Or(X, Y), {"x": False})

    @given(formulas(), st.booleans(), st.booleans(), st.booleans())
    def test_matches_naive_oracle(self, f, vx, vy, vz):
        assignment = {"x": vx, "y": vy, "z": vz}
        assert evaluate(f, assignment) == naive_eval(f, assignment)


class TestEvaluateReading:
    """The names ``evaluate_reading`` records are exactly those it reads: the
    recursive QBF oracle skips a branch on any variable left out."""

    def test_short_circuited_operand_is_not_read(self):
        assignment = {"x": True, "y": False}
        for f, value in [(Or(X, Y), True), (And(Not(X), Y), False), (Implies(Not(X), Y), True)]:
            read = set()
            assert evaluate_reading(f, assignment, read) is value
            assert read == {"x"}

    def test_iff_reads_both_sides(self):
        read = set()
        assert evaluate_reading(Iff(X, Y), {"x": False, "y": False}, read) is True
        assert read == {"x", "y"}

    def test_constants_read_nothing(self):
        read = set()
        assert evaluate_reading(Or(FALSE, Not(TRUE)), {}, read) is False
        assert read == set()

    def test_unbound_variable_is_named(self):
        with pytest.raises(EvaluationError, match="^unbound variable: y$"):
            evaluate_reading(And(X, Y), {"x": True}, set())

    def test_non_node_is_a_type_error(self):
        with pytest.raises(TypeError, match="^not a formula node: 'x'$"):
            evaluate_reading(Not("x"), {"x": True}, set())


class TestConsistentEntails:
    def test_contradictory_pair(self):
        assert consistent([X, Not(X)]) is False

    def test_empty_set(self):
        assert consistent([]) is True

    def test_clause_with_free_branch(self):
        assert consistent([Or(Not(Y), A)]) is True

    def test_entails_self(self):
        assert entails([A], A) is True

    def test_nothing_entails_a_variable(self):
        assert entails([], A) is False

    def test_dead_branch_forces_goal(self):
        assert entails([Or(Not(Or(Y, Not(Y))), A)], A) is True

    @given(st.lists(formulas(max_leaves=5), max_size=3), formulas(max_leaves=5))
    @settings(max_examples=60)
    def test_matches_naive_oracle(self, premises, goal):
        assert entails(premises, goal) == naive_entails(premises, goal)

    @given(st.lists(formulas(max_leaves=5), max_size=3), formulas(max_leaves=5))
    @settings(max_examples=60)
    def test_entailment_consistency_duality(self, premises, goal):
        assert entails(premises, goal) == (not consistent(list(premises) + [Not(goal)]))

    def test_variable_cap(self):
        wide = [Var(f"v{i}") for i in range(23)]
        with pytest.raises(ResourceLimitError):
            consistent(wide)
        with pytest.raises(ResourceLimitError):
            entails(wide[:-1], wide[-1])


def _reference_truth_table(f, order, width):
    """The truth table as it was built before the all-ones table was
    hoisted: one ``full`` per node, ``isinstance`` dispatch."""
    full = (1 << (1 << width)) - 1
    if isinstance(f, Const):
        return full if f.value else 0
    if isinstance(f, Var):
        try:
            return _wave(order[f.name], width)
        except KeyError:
            raise EvaluationError(f"unbound variable: {f.name}") from None
    if isinstance(f, Not):
        return full ^ _reference_truth_table(f.operand, order, width)
    left = _reference_truth_table(f.left, order, width)
    right = _reference_truth_table(f.right, order, width)
    if isinstance(f, And):
        return left & right
    if isinstance(f, Or):
        return left | right
    if isinstance(f, Implies):
        return (full ^ left) | right
    return full ^ (left ^ right)  # Iff


def _table_formula(rng, names, depth):
    """A random formula rich in constants and negations: constant leaves,
    ``!true``/``!false`` and chains of ``Not`` all come up often."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        if not names or rng.random() < 0.25:
            return Const(rng.random() < 0.5)
        return Var(rng.choice(names))
    if roll < 0.45:
        return Not(_table_formula(rng, names, depth - 1))
    ctor = rng.choice(_BINARY)
    return ctor(_table_formula(rng, names, depth - 1), _table_formula(rng, names, depth - 1))


def _reference_evaluate_reading(f, assignment, read):
    """``evaluate_reading`` as it was before it dispatched through the node
    classes' methods: one recursive if-chain over the node classes."""
    cls = f.__class__
    if cls is Var:
        read.add(f.name)
        try:
            return assignment[f.name]
        except KeyError:
            raise EvaluationError(f"unbound variable: {f.name}") from None
    if cls is Not:
        return not _reference_evaluate_reading(f.operand, assignment, read)
    if cls is And:
        return _reference_evaluate_reading(f.left, assignment, read) and _reference_evaluate_reading(
            f.right, assignment, read
        )
    if cls is Or:
        return _reference_evaluate_reading(f.left, assignment, read) or _reference_evaluate_reading(
            f.right, assignment, read
        )
    if cls is Implies:
        return not _reference_evaluate_reading(f.left, assignment, read) or _reference_evaluate_reading(
            f.right, assignment, read
        )
    if cls is Iff:
        return _reference_evaluate_reading(f.left, assignment, read) == _reference_evaluate_reading(
            f.right, assignment, read
        )
    if cls is Const:
        return f.value
    raise TypeError(f"not a formula node: {f!r}")


def _outcome(evaluator, f, assignment):
    """(value or error text, the names read) of one evaluation."""
    read = set()
    try:
        return evaluator(f, assignment, read), read
    except EvaluationError as exc:
        return f"error: {exc}", read


class TestAgainstTheIfChain:
    def test_value_and_read_set_match_on_random_pairs(self):
        rng = random.Random(24)
        names = ["a", "b", "c", "d", "e"]
        failed = 0
        for _ in range(600):
            f = _table_formula(rng, names, rng.randint(0, 6))
            for _ in range(4):
                # Some names stay unbound, so some evaluations fail part way.
                bound = [n for n in names if rng.random() < 0.85]
                assignment = {n: rng.random() < 0.5 for n in bound}
                got = _outcome(evaluate_reading, f, assignment)
                assert got == _outcome(_reference_evaluate_reading, f, assignment), (f, assignment)
                if isinstance(got[0], str):
                    failed += 1
                else:
                    assert evaluate(f, assignment) is got[0]
        assert 200 <= failed <= 900

    def test_every_node_class_and_a_partial_read(self):
        assignment = {"x": True, "y": False}
        cases = [
            TRUE, FALSE, Not(Not(Not(X))), Not(Not(TRUE)),
            And(X, Y), And(Y, Var("z")), Or(X, Var("z")), Or(Y, X),
            Implies(Y, Var("z")), Implies(X, Y), Iff(X, Y), Iff(Not(Y), Not(Not(X))),
            # An unbound name after others were read: the error and the partial read.
            And(X, Or(Y, Var("z"))), Iff(Not(X), Var("z")), Implies(TRUE, Var("z")),
        ]
        for f in cases:
            assert _outcome(evaluate_reading, f, assignment) == _outcome(
                _reference_evaluate_reading, f, assignment
            ), f
        read = set()
        with pytest.raises(EvaluationError, match="^unbound variable: z$"):
            evaluate_reading(And(X, Or(Y, Var("z"))), assignment, read)
        assert read == {"x", "y", "z"}

    @pytest.mark.parametrize("width", range(7))
    def test_truth_table_matches_the_reference_at_small_widths(self, width):
        rng = random.Random(width)
        order = {f"v{p}": p for p in range(width)}
        for _ in range(200):
            f = _table_formula(rng, list(order), rng.randint(0, 6))
            assert truth_table(f, order, width) == _reference_truth_table(f, order, width), f


class TestNonNode:
    """Every walk rejects a non-node at any depth with the same ``TypeError``."""

    STRAYS = [
        (Not("x | y"), "'x | y'"),
        ("x", "'x'"),
        (And(X, Or(Not(Y), 5)), "5"),
        (Iff(Implies(TRUE, X), Not(Not(None))), "None"),
        (And(X, _Binary(X, Y)), "_Binary(left=Var(name='x'), right=Var(name='y'))"),
    ]

    @pytest.mark.parametrize(
        "walk",
        [serialize_formula, variables, size, lambda f: substitute(f, "x", True)],
        ids=["serialize_formula", "variables", "size", "substitute"],
    )
    def test_each_walk_names_the_stray(self, walk):
        for f, shown in self.STRAYS:
            with pytest.raises(TypeError, match=f"^not a formula node: {re.escape(shown)}$"):
                walk(f)

    def test_a_formula_subclass_that_is_no_node_is_a_stray(self):
        stray = _Binary(X, Y)  # the connectives' shared base
        with pytest.raises(TypeError, match="^not a formula node: _Binary"):
            evaluate(Or(FALSE, stray), {"x": True, "y": True})
        with pytest.raises(TypeError, match="^not a formula node: _Binary"):
            truth_table(Not(stray), {"x": 0, "y": 1}, 2)

    def test_a_stray_the_evaluation_never_reaches_is_not_read(self):
        # The short-circuit skips the stray, as the if-chain did.
        assert evaluate(Or(TRUE, Not("x")), {}) is True
        assert _reference_evaluate_reading(Or(TRUE, Not("x")), {}, set()) is True


class TestTruthTable:
    def test_matches_the_per_node_reference_bit_for_bit(self):
        rng = random.Random(18)
        for width in range(ENTAILMENT_VAR_CAP + 1):
            draws = 150 if width <= 10 else 20 if width <= 16 else 3
            for _ in range(draws):
                # The formula's names sit at some of the positions, so the
                # others are bits it does not use.
                positions = rng.sample(range(width), rng.randint(min(width, 1), min(width, 8)))
                order = {f"v{p}": p for p in positions}
                f = _table_formula(rng, list(order), rng.randint(2, 6))
                assert truth_table(f, order, width) == _reference_truth_table(f, order, width), f

    @pytest.mark.parametrize("width", [0, 1, 5])
    def test_constants_and_negation_chains(self, width):
        full = (1 << (1 << width)) - 1
        order = {"x": 0} if width else {}
        cases = [TRUE, FALSE, Not(TRUE), Not(Not(FALSE)), Iff(Not(TRUE), FALSE)]
        if width:
            cases += [Not(Not(Not(X))), Implies(X, Not(Not(X))), Or(Not(TRUE), Not(X))]
        for f in cases:
            assert truth_table(f, order, width) == _reference_truth_table(f, order, width)
        assert truth_table(Not(TRUE), order, width) == 0
        assert truth_table(Not(Not(Not(FALSE))), order, width) == full

    def test_unbound_variable_is_named(self):
        f = And(Not(TRUE), Or(X, Var("missing")))
        with pytest.raises(EvaluationError, match="^unbound variable: missing$"):
            truth_table(f, {"x": 0}, 1)
        with pytest.raises(EvaluationError, match="^unbound variable: missing$"):
            _reference_truth_table(f, {"x": 0}, 1)

    def test_non_formula_node_is_rejected(self):
        with pytest.raises(TypeError, match="^not a formula node: 5$"):
            truth_table(5, {}, 0)
        with pytest.raises(TypeError, match="^not a formula node: 'x'$"):
            truth_table(And(X, Not("x")), {"x": 0}, 1)


class TestNames:
    def test_gadget_names_are_legal(self):
        for name in ("x+", "x-", "_q1", "_p10", "x^2", "A-b"):
            assert Var(name).name == name

    def test_bad_names_rejected(self):
        for name in ("", "1x", "x y", "x|", "+x"):
            with pytest.raises(ContractError):
                Var(name)


# The nodes as frozen slot dataclasses, the form they had before they were
# written by hand: the reference for what the hand-written classes must keep.
_REFERENCE_NODES = {
    Const: make_dataclass("Const", [("value", bool)], frozen=True, slots=True),
    Var: make_dataclass(
        "Var", [("name", str)], frozen=True, slots=True,
        namespace={"__post_init__": lambda self: check_name(self.name)},
    ),
    Not: make_dataclass("Not", [("operand", object)], frozen=True, slots=True),
} | {
    node: make_dataclass(node.__name__, [("left", object), ("right", object)], frozen=True, slots=True)
    for node in _BINARY
}


def _reference(f):
    """``f`` rebuilt from the reference dataclasses."""
    fields = (getattr(f, name) for name in f.__match_args__)
    return _REFERENCE_NODES[f.__class__](
        *(_reference(v) if v.__class__ in _REFERENCE_NODES else v for v in fields)
    )


class TestNodes:
    def test_nodes_behave_like_the_frozen_dataclasses(self):
        rng = random.Random(13)
        for _ in range(3_000):
            # Shallow trees over two names, so that many pairs are equal.
            f, g = (_random_theory_formula(rng, ["x", "y"], rng.randint(0, 3)) for _ in range(2))
            ref_f, ref_g = _reference(f), _reference(g)
            assert (f == g) is (ref_f == ref_g)
            assert (f != g) is (ref_f != ref_g)
            assert (f.__eq__(g) is NotImplemented) is (ref_f.__eq__(ref_g) is NotImplemented)
            assert f.__eq__(ref_f) is NotImplemented
            assert hash(f) == hash(ref_f)
            assert repr(f) == repr(ref_f)
            assert f.__match_args__ == ref_f.__match_args__
            for name in f.__match_args__:
                for change, args in ((setattr, (name, TRUE)), (delattr, (name,))):
                    with pytest.raises(FrozenInstanceError) as err:
                        change(f, *args)
                    with pytest.raises(FrozenInstanceError) as ref_err:
                        change(ref_f, *args)
                    assert str(err.value) == str(ref_err.value)
            # Here the slot dataclasses raise a TypeError from inside their
            # generated __setattr__, so the message is fixed on its own.
            with pytest.raises(FrozenInstanceError, match="cannot assign to field 'other'"):
                f.other = TRUE
            with pytest.raises(FrozenInstanceError, match="cannot delete field 'other'"):
                del f.other

    def test_pickle_and_copies_round_trip(self):
        rng = random.Random(17)
        for _ in range(200):
            f = _random_theory_formula(rng, ["x", "y+", "_p1"], 6)
            copies = [copy.copy(f), copy.deepcopy(f)] + [
                pickle.loads(pickle.dumps(f, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
            ]
            for copied in copies:
                assert copied == f and hash(copied) == hash(f) and repr(copied) == repr(f)

    def test_match_and_rebuild_by_class(self):
        f = Implies(Not(X), Iff(Y, TRUE))
        match f:
            case Implies(Not(Var(name)), Iff(right, Const(value))):
                assert (name, right, value) == ("x", Y, True)
            case _:
                pytest.fail("no match")
        assert isinstance(f, _BINARY) and not isinstance(f.left, _BINARY)
        assert type(f)(f.right, f.left) == Implies(Iff(Y, TRUE), Not(X))
        assert f.left.operand.__class__ is Var


def test_size_counts_nodes():
    assert size(Or(Not(Var("x+")), Not(Var("x-")))) == 5


def test_conjunction_fold():
    assert conjunction([]) == TRUE
    assert conjunction([X]) == X
    assert conjunction([X, Y, A]) == And(And(X, Y), A)


def _brute_projection(fs, keep):
    """Projection by walking every row of the full table: a row that
    satisfies every formula sets the bit of its kept variables' values."""
    kept = sorted(set(keep))
    full = universe(sorted(set(kept).union(*map(variables, fs))))
    table = full.full
    for f in fs:
        table &= truth_table(f, full.order, full.width)
    out = 0
    for row in range(1 << full.width):
        if table >> row & 1:
            index = sum(1 << i for i, name in enumerate(kept) if row >> full.order[name] & 1)
            out |= 1 << index
    return kept, out


def _random_theory_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Const(rng.random() < 0.5) if rng.random() < 0.08 else Var(rng.choice(names))
    if rng.random() < 0.2:
        return Not(_random_theory_formula(rng, names, depth - 1))
    ctor = rng.choice([And, Or, Implies, Iff])
    return ctor(
        _random_theory_formula(rng, names, depth - 1), _random_theory_formula(rng, names, depth - 1)
    )


def test_insert_and_remove_several_positions_match_bit_by_bit():
    """Row ``j`` of the wide table belongs to the narrow row made of ``j``'s
    bits outside ``positions``; inserting copies that row, removing ORs the
    rows that share it."""
    rng = random.Random(40)
    for _ in range(400):
        width = rng.randint(1, 7)
        positions = sorted(rng.sample(range(width), rng.randint(0, width)))
        rest = [k for k in range(width) if k not in positions]

        def narrow(j):
            return sum(1 << i for i, k in enumerate(rest) if j >> k & 1)

        table = rng.getrandbits(1 << len(rest))
        lifted = _insert(table, positions, width)
        assert lifted == sum(1 << j for j in range(1 << width) if table >> narrow(j) & 1)
        assert _remove(lifted, positions, width) == table
        wide = rng.getrandbits(1 << width)
        projected = 0
        for j in range(1 << width):
            projected |= (wide >> j & 1) << narrow(j)
        assert _remove(wide, positions, width) == projected


def _kept(keep):
    """The universe a caller of ``Universe.project`` builds: sorted, as it must be."""
    return universe(sorted(keep), what="kept variables")


def factors(fs):
    """``fs`` as ``Universe.project`` takes them: each with its variables' names."""
    return [(variables(f), f) for f in fs]


class TestProject:
    def test_matches_brute_force_projection(self):
        rng = random.Random(41)
        for _ in range(1500):
            names = [f"v{i}" for i in range(rng.randint(1, 8))]
            fs = [
                _random_theory_formula(rng, names, rng.randint(0, 4))
                for _ in range(rng.randint(0, 5))
            ]
            # keep may name variables no formula mentions, or none at all
            keep = [n for n in names + ["w"] if rng.random() < 0.4]
            u = _kept(keep)
            table = u.project(factors(fs))
            kept, expected = _brute_projection(fs, keep)
            assert list(u.order) == kept
            assert table == expected, (fs, keep)

    def test_edge_cases(self):
        assert _kept([]).project([]) == 1
        assert _kept(["b", "a"]).project([]) == universe(["a", "b"]).full
        assert _kept([]).project(factors([X, Not(X)])) == 0
        assert _kept(["y"]).project(factors([Or(X, Y)])) == 0b11
        assert _kept(["a"]).project(factors([FALSE, A])) == 0
        u = _kept(["a"])
        assert (u.order, u.project(factors([Implies(X, A), X]))) == ({"a": 0}, 0b10)

    def test_cap_bounds_each_bucket_not_the_whole_set(self):
        chain = [Implies(Var(f"v{i}"), Var(f"v{i + 1}")) for i in range(40)]
        assert _kept(["v40"]).project(factors(chain + [Var("v0")])) == 0b10
        size, cap = ENTAILMENT_VAR_CAP + 1, ENTAILMENT_VAR_CAP
        wide = conjunction(Var(f"v{i}") for i in range(size))
        bucket = f"^{size} variables in one elimination bucket exceed ENTAILMENT_VAR_CAP={cap}$"
        with pytest.raises(ResourceLimitError, match=bucket):
            _kept(["v0"]).project(factors([wide]))
        kept = f"^{size} kept variables exceed ENTAILMENT_VAR_CAP={cap}$"
        with pytest.raises(ResourceLimitError, match=kept):
            _kept([f"k{i}" for i in range(size)])
