"""Extension semantics, skeptical entailment, and the universal raise."""

import gc
import random

import pytest

from qraise import defaults
from qraise.cli import main
from qraise.defaults import (
    Default,
    DefaultTheory,
    SkepticalResult,
    base_reduction,
    extensions,
    parse_theory,
    raise_universal,
    reduce_qbf,
    serialize_theory,
    skeptically_entails,
    substitute_theory,
    verify_extension,
)
from qraise.errors import ContractError, ParseError, ResourceLimitError, UnsupportedShapeError
from qraise.formulas import (
    ENTAILMENT_VAR_CAP,
    And,
    Const,
    FALSE,
    Not,
    Or,
    TRUE,
    Var,
    entails,
    truth_table,
    universe,
    variables,
)
from qraise.parsing import parse_formula, parse_qbf, serialize_formula
from qraise.qbf import (
    Qbf,
    Quantifier,
    qbf_valid,
    qbf_valid_by_table,
    raise_prefix,
    random_matrix,
    split_prefix,
)

from test_formulas import factors

A, X, Y, P = Var("a"), Var("x"), Var("y"), Var("p")


def D(justification, consequence=None, prerequisite=TRUE):
    return Default(prerequisite, justification, consequence or justification)


class TestVerifyExtension:
    def test_applicable_default_generates(self):
        theory = DefaultTheory((D(A),))
        assert verify_extension(theory, {0}) is True

    def test_empty_set_is_not_a_fixpoint(self):
        theory = DefaultTheory((D(A),))
        assert verify_extension(theory, set()) is False

    def test_blocked_justification_leaves_empty_extension(self):
        body = And(A, And(Y, Not(Y)))
        theory = DefaultTheory((D(body),))
        assert verify_extension(theory, set()) is True
        assert verify_extension(theory, {0}) is False

    def test_prerequisite_staging(self):
        # second default only fires once the first has concluded
        theory = DefaultTheory((D(A), Default(A, Y, Y)))
        assert verify_extension(theory, {0, 1}) is True
        assert verify_extension(theory, {0}) is False

    def test_index_out_of_range(self):
        with pytest.raises(ContractError):
            verify_extension(DefaultTheory((D(A),)), {3})

    def test_refuted_justification_is_rejected(self):
        # Choosing true : !x / x concludes x, which refutes its justification:
        # only test (b) fails, and the walk's prune, not _accepts, applies it.
        # Not choosing it leaves it applicable, so the theory has no extension.
        theory = DefaultTheory((D(Not(X), X),))
        tables = defaults._TheoryTables(theory)
        assert defaults._accepts(tables, 1, tables.cons[0])
        assert verify_extension(theory, {0}) is False
        assert verify_extension(theory, set()) is False
        assert list(defaults._extensions(tables)) == []


class TestExtensions:
    def test_two_branches(self):
        theory = DefaultTheory((D(And(X, P)), D(And(Not(X), P))))
        assert set(extensions(theory)) == {frozenset({0}), frozenset({1})}

    def test_empty_theory(self):
        assert extensions(DefaultTheory(())) == (frozenset(),)

    def test_satisfiable_body(self):
        theory = DefaultTheory((D(And(A, Y)),))
        found = extensions(theory)
        assert found == (frozenset({0}),)
        assert entails([theory.defaults[0].consequence], A)

    def test_no_extension_theory(self):
        # concluding a defeats its own justification
        theory = DefaultTheory((Default(TRUE, Not(A), A),))
        assert extensions(theory) == ()

    def test_default_count_cap(self):
        theory = DefaultTheory(tuple(D(Var(f"v{i}")) for i in range(13)))
        with pytest.raises(ResourceLimitError):
            extensions(theory)


class TestSkeptical:
    def test_tautology_guard_entails(self):
        theory = DefaultTheory((D(And(A, Or(Y, Not(Y)))),))
        result = skeptically_entails(theory, A)
        assert result.holds is True and result.extension_count == 1

    def test_contradictory_guard_does_not(self):
        theory = DefaultTheory((D(And(A, And(Y, Not(Y)))),))
        assert skeptically_entails(theory, A).holds is False

    def test_empty_theory_entails_true(self):
        assert skeptically_entails(DefaultTheory(()), TRUE).holds is True

    def test_vacuous_flag(self):
        theory = DefaultTheory((Default(TRUE, Not(A), A),))
        result = skeptically_entails(theory, A)
        assert result.holds is True and result.extension_count == 0


class TestBaseReduction:
    def test_satisfiable_matrix_entails(self):
        theory, query = base_reduction(Y, ["y"])
        assert theory.defaults == (Default(TRUE, And(A, Y), And(A, Y)),)
        assert skeptically_entails(theory, Var(query)).holds is True

    def test_unsatisfiable_matrix_does_not(self):
        theory, query = base_reduction(And(Y, Not(Y)), ["y"])
        assert skeptically_entails(theory, Var(query)).holds is False

    def test_constant_true(self):
        theory, query = base_reduction(TRUE, [])
        assert skeptically_entails(theory, Var(query)).holds is True

    def test_reserved_name_collision(self):
        with pytest.raises(ContractError):
            base_reduction(Var("a"), ["a"])


class TestRaiseUniversal:
    def test_construction_and_answer(self):
        theory, query = base_reduction(X, ["x"])
        raised = raise_universal(theory, "x", 1)
        assert len(raised.defaults) == 3
        assert raised.defaults[0].justification == And(X, Var("_p1"))
        assert raised.defaults[2].prerequisite == And(Var("_p1"), TRUE)
        assert skeptically_entails(raised, Var(query)).holds is False

    def test_tautology_matrix_survives_both_branches(self):
        theory, query = base_reduction(Or(X, Not(X)), ["x"])
        raised = raise_universal(theory, "x", 1)
        assert skeptically_entails(raised, Var(query)).holds is True

    def test_extension_count_is_sum_of_branches(self):
        theory, _ = base_reduction(X, ["x"])
        raised = raise_universal(theory, "x", 1)
        on_true = extensions(substitute_theory(theory, "x", True))
        on_false = extensions(substitute_theory(theory, "x", False))
        assert len(extensions(raised)) == len(on_true) + len(on_false)

    def test_nonempty_background_rejected(self):
        theory = DefaultTheory((D(A),), frozenset({Y}))
        with pytest.raises(ContractError):
            raise_universal(theory, "y", 1)

    def test_freshness_violation(self):
        theory = DefaultTheory((D(Var("_p1")),))
        with pytest.raises(ContractError):
            raise_universal(theory, "x", 1)


def _random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return Const(rng.random() < 0.5)
        return Var(rng.choice(names))
    if rng.random() < 0.25:
        return Not(_random_formula(rng, names, depth - 1))
    ctor = rng.choice([And, Or])
    return ctor(_random_formula(rng, names, depth - 1), _random_formula(rng, names, depth - 1))


def test_lemma_merge_on_random_theories():
    """Extensions of the raised theory correspond to the branch extensions,
    with the branch literal and the guard adjoined; skeptical answers AND."""
    rng = random.Random(33)
    for _ in range(60):
        pool = ["x", "q0", "v1"]
        count = rng.randint(1, 4)
        made = tuple(
            Default(
                TRUE if rng.random() < 0.6 else _random_formula(rng, pool, 1),
                _random_formula(rng, pool, 2),
                _random_formula(rng, pool, 2),
            )
            for _ in range(count)
        )
        theory = DefaultTheory(made)
        raised = raise_universal(theory, "x", 1)

        names = sorted(raised.all_variables() | {"x", "_p1", "q0"})
        order = {n: i for i, n in enumerate(names)}
        width = len(names)

        def sig(formulas):
            table = (1 << (1 << width)) - 1
            for f in formulas:
                table &= truth_table(f, order, width)
            return table

        def consequences(t, generating):
            return [t.defaults[i].consequence for i in generating]

        merged = sorted(sig(consequences(raised, g)) for g in extensions(raised))
        expected = []
        for value, tag in ((True, X), (False, Not(X))):
            branch = substitute_theory(theory, "x", value)
            for g in extensions(branch):
                expected.append(sig(consequences(branch, g) + [tag, Var("_p1")]))
        assert merged == sorted(expected)

        got = skeptically_entails(raised, Var("q0")).holds
        want = (
            skeptically_entails(substitute_theory(theory, "x", True), Var("q0")).holds
            and skeptically_entails(substitute_theory(theory, "x", False), Var("q0")).holds
        )
        assert got == want


def _staged_fixpoint(tables, pre, just, cons, background, mask):
    """The staged construction against a candidate: the generating set it
    reaches, and the candidate's consequence table."""
    consequence = background
    for i in range(len(cons)):
        if mask >> i & 1:
            consequence &= cons[i]
    reached, current = 0, background
    while True:
        added = 0
        for i in range(len(cons)):
            if reached >> i & 1:
                continue
            entailed = current & (tables.universe.full ^ pre[i]) == 0
            if entailed and consequence & just[i] != 0:
                added |= 1 << i
        if not added:
            return reached, consequence
        reached |= added
        for i in range(len(cons)):
            if added >> i & 1:
                current &= cons[i]


def _oracle_extensions(theory, tables):
    """Every mask in range(2**n) through the staged construction: the
    exhaustive generate-and-verify that the depth-first walk replaced."""
    background = tables.universe.full
    for f in theory.background:
        background &= tables.table(f)
    pre = [tables.table(d.prerequisite) for d in theory.defaults]
    just = [tables.table(d.justification) for d in theory.defaults]
    cons = [tables.table(d.consequence) for d in theory.defaults]
    found = []
    for mask in range(1 << len(theory.defaults)):
        reached, consequence = _staged_fixpoint(tables, pre, just, cons, background, mask)
        if reached == mask and (consequence or (background == 0 and mask == 0)):
            found.append((mask, consequence))
    return found


def _random_theory(rng, pool):
    shared = [_random_formula(rng, pool, 2) for _ in range(2)]

    def component():
        roll = rng.random()
        if roll < 0.1:
            return rng.choice([TRUE, FALSE])
        if roll < 0.3:
            return rng.choice(shared)
        if roll < 0.65:
            literal = Var(rng.choice(pool))
            return literal if rng.random() < 0.5 else Not(literal)
        return _random_formula(rng, pool, 2)

    made = []
    for _ in range(rng.randint(0, 5)):
        prerequisite = TRUE if rng.random() < 0.4 else component()
        justification = component()
        normal = rng.random() < 0.5
        made.append(Default(prerequisite, justification, justification if normal else component()))
    if rng.random() < 0.6:
        # two normal defaults that defeat each other: competing extensions
        literal = Var(rng.choice(pool))
        for side in (literal, Not(literal)):
            made.insert(rng.randint(0, len(made)), Default(TRUE, side, side))
    roll = rng.random()
    if roll < 0.3:
        background = frozenset(_random_formula(rng, pool, 2) for _ in range(rng.randint(1, 2)))
    elif roll < 0.45:
        background = frozenset({And(X, Not(X))})
    else:
        background = frozenset()
    return DefaultTheory(tuple(made), background)


def test_depth_first_walk_matches_exhaustive_oracle():
    """Same sorted (mask, table) list, and verify_extension agrees with the
    oracle on every subset."""
    rng = random.Random(404)
    pool = ["x", "y", "q0"]
    several = 0
    for _ in range(300):
        theory = _random_theory(rng, pool)
        tables = defaults._enumeration_tables(theory)
        expected = _oracle_extensions(theory, tables)
        assert sorted(defaults._extensions(tables)) == expected
        accepted = {mask for mask, _ in expected}
        n = len(theory.defaults)
        for mask in range(1 << n):
            chosen = [i for i in range(n) if mask >> i & 1]
            assert verify_extension(theory, chosen) == (mask in accepted)
        several += len(expected) > 1
    assert several > 50


def test_enumeration_leaves_no_reference_cycle():
    """The walk holds its tables in plain locals: a self-referencing walk would
    keep every table alive until a collection, raising peak memory."""
    theory, query = reduce_qbf(parse_qbf("forall x1 x2; exists y; : (x1 | y) & (x2 <-> y)"))
    gc.collect()
    gc.disable()
    try:
        skeptically_entails(theory, Var(query))
        extensions(theory)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestReduceQbf:
    def test_forall_exists_biconditional(self):
        q = parse_qbf("forall x; exists y; : x <-> y")
        theory, query = reduce_qbf(q)
        assert skeptically_entails(theory, Var(query)).holds is True
        assert qbf_valid(q) is True

    def test_forall_exists_conjunction(self):
        q = parse_qbf("forall x; exists y; : x & y")
        theory, query = reduce_qbf(q)
        assert skeptically_entails(theory, Var(query)).holds is False

    def test_single_existential(self):
        q = parse_qbf("exists y; : y")
        theory, query = reduce_qbf(q)
        assert skeptically_entails(theory, Var(query)).holds is True

    def test_wrong_shape_rejected(self):
        with pytest.raises(UnsupportedShapeError):
            reduce_qbf(parse_qbf("exists x; forall y; : x & y"))


# --- fresh-name clashes against the per-raise fold -------------------------------

def _per_raise_fold(q):
    """``reduce_qbf`` as it was, kept as the reference: every raise walks the
    whole theory to check its guard."""
    universal, _ = split_prefix(q, defaults.SHAPE)
    if defaults.QUERY_VAR in (name for _, name in q.prefix):
        raise ContractError(f"prefix uses the reserved query name {defaults.QUERY_VAR!r}")
    body = And(Var(defaults.QUERY_VAR), q.matrix)
    theory = DefaultTheory((Default(TRUE, body, body),))
    return raise_prefix(theory, universal, {Quantifier.FORALL: raise_universal}), defaults.QUERY_VAR


def _reduced_text(reduce, q):
    try:
        return serialize_theory(*reduce(q))
    except (ContractError, UnsupportedShapeError) as exc:
        return type(exc).__name__, str(exc)


class TestFreshNameClashes:
    def test_universal_named_as_its_guard(self):
        q = Qbf(((Quantifier.FORALL, "_p1"), (Quantifier.EXISTS, "y")), And(Var("_p1"), Y))
        with pytest.raises(ContractError, match="fresh name '_p1' already occurs in the theory"):
            reduce_qbf(q)

    def test_guard_in_the_matrix_clashes(self):
        q = Qbf(((Quantifier.FORALL, "x"), (Quantifier.EXISTS, "_p1")), Or(X, Var("_p1")))
        with pytest.raises(ContractError, match="fresh name '_p1' already occurs in the theory"):
            reduce_qbf(q)

    def test_guard_the_theory_leaves_out_does_not_clash(self):
        # _p1 is x's guard, but nothing in the theory uses it before x is raised.
        q = Qbf(((Quantifier.FORALL, "_p1"), (Quantifier.FORALL, "x")), X)
        assert _reduced_text(reduce_qbf, q) == _reduced_text(_per_raise_fold, q)
        assert isinstance(_reduced_text(reduce_qbf, q), str)

    def test_standalone_raise_still_walks_the_theory(self):
        with pytest.raises(ContractError, match="fresh name '_p2'"):
            raise_universal(DefaultTheory((D(Or(X, Var("_p2"))),)), "x", 2)
        with pytest.raises(ContractError, match="fresh name '_p1'"):
            raise_universal(DefaultTheory((D(X),)), "_p1", 1)

    def test_random_qbfs_reduce_as_the_per_raise_fold(self):
        rng = random.Random(43)
        pool = ["x", "y", "z", "_p1", "_p2", "_p3", "a"]
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


class TestTheoryFormat:
    def test_round_trip(self):
        q = parse_qbf("forall x; exists y; : x <-> y")
        theory, query = reduce_qbf(q)
        parsed, parsed_query = parse_theory(serialize_theory(theory, query))
        assert parsed == theory
        assert parsed_query == query

    def test_empty_prerequisite_reads_as_true(self):
        theory, _ = parse_theory(" : a & x / a & x\n")
        assert theory.defaults[0].prerequisite == TRUE

    def test_background_lines(self):
        theory, query = parse_theory("W: x | y\n: a / a\nquery: a\n")
        assert theory.background == {Or(X, Y)}
        assert query == "a"

    def test_malformed_line(self):
        with pytest.raises(Exception):
            parse_theory("not a default\n")

    def test_only_a_newline_ends_a_line(self):
        """As in a QBF file, a form feed and U+2028 in a formula are
        whitespace, and an error after them names the line counted by '\\n'."""
        text = "W: x \f| \u2028y\n: a / a\nquery: a\n"
        assert parse_theory(text)[0].background == {Or(X, Y)}
        with pytest.raises(ParseError) as caught:
            parse_theory(text + ": a \f& \u2028% / a\n")
        error = caught.value
        assert (error.message, error.line, error.column) == ("unexpected character '%'", 4, 9)

    def test_a_second_query_line_is_a_parse_error(self):
        with pytest.raises(ParseError) as caught:
            parse_theory(": x / x\nquery: x\n  query: y\n")
        error = caught.value
        assert (error.message, error.line, error.column) == ("second 'query:' line", 3, 3)

    def test_equal_texts_parse_to_one_object(self):
        theory, query = reduce_qbf(parse_qbf("forall x; exists y; : x <-> y"))
        text = serialize_theory(theory, query)
        parsed, _ = parse_theory(text)
        assert all(d.justification is d.consequence for d in parsed.defaults)
        assert serialize_theory(parsed, query) == text
        spaced, _ = parse_theory(": a & x /a & x \n: a&x / a & x\n: a / a & x\n")
        shared, unequal, other = spaced.defaults
        assert shared.justification is shared.consequence
        assert unequal.justification == unequal.consequence
        assert unequal.justification is not unequal.consequence
        assert other.justification is not other.consequence

    def test_shared_body_renders_as_two_equal_objects_do(self):
        body = parse_formula("a & (x <-> !y)")
        shared = DefaultTheory((Default(X, body, body),))
        separate = DefaultTheory((Default(X, body, parse_formula("a & (x <-> !y)")),))
        assert serialize_theory(shared, "a") == serialize_theory(separate, "a")
        assert serialize_theory(shared) == "x : a & (x <-> !y) / a & (x <-> !y)\n"


# --- projection against the full-table decider ----------------------------------

class _FullTables:
    """The tables before projection, kept as the reference: every formula is
    tabulated over every variable of the theory and ``extra``."""

    def __init__(self, theory, extra=()):
        names = set(theory.all_variables())
        for f in extra:
            names |= variables(f)
        self.universe = universe(sorted(names))
        self.full = self.universe.full
        self.background = self.full
        for f in theory.background:
            self.background &= self.table(f)
        self.not_pre = [self.full ^ self.table(d.prerequisite) for d in theory.defaults]
        self.just = [self.table(d.justification) for d in theory.defaults]
        self.cons = [self.table(d.consequence) for d in theory.defaults]

    def table(self, f):
        return truth_table(f, self.universe.order, self.universe.width)


def _full_accepts(tables, mask, consequence=None):
    count = len(tables.cons)
    if consequence is None:
        consequence = tables.background
        for i in range(count):
            if mask >> i & 1:
                consequence &= tables.cons[i]
    if mask and not consequence:
        return None
    for i in range(count):
        compatible = consequence & tables.just[i] != 0
        if mask >> i & 1:
            if not compatible:
                return None
        elif compatible and consequence & tables.not_pre[i] == 0:
            return None
    reached, current, grew = 0, tables.background, True
    while grew:
        grew = False
        for i in range(count):
            if (mask & ~reached) >> i & 1 and current & tables.not_pre[i] == 0:
                reached |= 1 << i
                current &= tables.cons[i]
                grew = True
    return consequence if reached == mask else None


def _full_extensions(tables):
    count = len(tables.cons)
    stack = [(count, 0, tables.background)]
    while stack:
        undecided, mask, consequence = stack.pop()
        if not undecided:
            if _full_accepts(tables, mask, consequence) is not None:
                yield mask, consequence
            continue
        i = undecided - 1
        chosen = mask | 1 << i
        narrowed = consequence & tables.cons[i]
        if all(narrowed & tables.just[j] for j in range(i, count) if chosen >> j & 1):
            stack.append((i, chosen, narrowed))
        stack.append((i, mask, consequence))


def _full_skeptical(theory, goal):
    tables = _FullTables(theory, [goal])
    goal_gap = tables.full ^ tables.table(goal)
    found = [consequence for _, consequence in _full_extensions(tables)]
    holds = all(consequence & goal_gap == 0 for consequence in found)
    return SkepticalResult(holds=holds, extension_count=len(found))


def _assert_matches_full_tables(theory, goal):
    """Same sorted extension masks as the reference, each
    consequence table the projection of the background and the chosen
    consequences, and the same skeptical answer. Returns (variables projected
    out, extension count)."""
    tables = defaults._enumeration_tables(theory, [goal])
    reference = _FullTables(theory, [goal])
    got = sorted(defaults._extensions(tables))
    want = sorted(_full_extensions(reference))
    assert [mask for mask, _ in got] == [mask for mask, _ in want]
    for mask, table in got:
        chosen = [d.consequence for i, d in enumerate(theory.defaults) if mask >> i & 1]
        assert table == tables.universe.project(factors([*theory.background, *chosen]))
    assert skeptically_entails(theory, goal) == _full_skeptical(theory, goal)
    return reference.universe.width - tables.universe.width, len(want)


def _pooled_theory(rng):
    """A theory whose components are drawn from a pool of shared objects.
    Each pool object may own variables no other object mentions; it becomes
    private unless the object also serves as a prerequisite or the goal.
    Some objects have an equal but separate copy in the pool."""
    common = ["x", "y", "q0"]
    pool = []
    for k in range(rng.randint(2, 5)):
        own = [f"v{k}_{j}" for j in range(rng.randint(0, 3))]
        pool.append(_random_formula(rng, common + own, 3))
    for f in rng.sample(pool, rng.randint(0, 2)):
        pool.append(parse_formula(serialize_formula(f)))
    pool += [Var(rng.choice(common)), Not(Var(rng.choice(common)))]

    def pick():
        return TRUE if rng.random() < 0.05 else rng.choice(pool)

    made = []
    for _ in range(rng.randint(0, 5)):
        prerequisite = TRUE if rng.random() < 0.6 else pick()
        justification = pick()
        made.append(
            Default(prerequisite, justification, justification if rng.random() < 0.6 else pick())
        )
    if rng.random() < 0.5:
        literal = Var(rng.choice(common))
        for side in (literal, Not(literal)):
            made.insert(rng.randint(0, len(made)), Default(TRUE, side, side))
    background = frozenset(rng.sample(pool, rng.randint(0, 1)) if rng.random() < 0.3 else ())
    goal = rng.choice([Var("q0"), Var("x"), pick()])
    return DefaultTheory(tuple(made), background), goal


def test_projection_matches_full_tables_on_pooled_theories():
    rng = random.Random(808)
    projected = several = 0
    for _ in range(1500):
        theory, goal = _pooled_theory(rng)
        hidden, count = _assert_matches_full_tables(theory, goal)
        projected += hidden > 0
        several += count > 1
    assert projected > 500 and several > 200


def test_projection_matches_full_tables_on_reductions():
    """Forall*-exists* reductions with up to 5 universals, decided as built
    and after a text round trip, which must project the same variables."""
    rng = random.Random(809)
    answers = []
    for _ in range(60):
        universal, existential = rng.randint(0, 5), rng.randint(1, 4)
        xs = [f"x{i + 1}" for i in range(universal)]
        ys = [f"y{i + 1}" for i in range(existential)]
        prefix = tuple((Quantifier.FORALL, n) for n in xs) + tuple(
            (Quantifier.EXISTS, n) for n in ys
        )
        q = Qbf(prefix, _random_formula(rng, xs + ys, 3))
        theory, query = reduce_qbf(q)
        hidden, _ = _assert_matches_full_tables(theory, Var(query))
        parsed, _ = parse_theory(serialize_theory(theory, query))
        assert _assert_matches_full_tables(parsed, Var(query))[0] == hidden
        answers.append(skeptically_entails(theory, Var(query)).holds)
        assert answers[-1] == qbf_valid(q)
    assert any(answers) and not all(answers)


def test_each_table_is_its_formulas_projection():
    """``_TheoryTables`` projects each formula onto the universe it holds:
    every table equals ``kept.project(factors([f]))``."""
    rng = random.Random(810)
    projected = 0
    for _ in range(600):
        theory, goal = _pooled_theory(rng)
        tables = defaults._enumeration_tables(theory, [goal])
        kept = tables.universe
        formulas = [goal, *theory.background]
        for d in theory.defaults:
            formulas += (d.prerequisite, d.justification, d.consequence)
        for f in formulas:
            assert tables.table(f) == kept.project(factors([f]))
            projected += not variables(f) <= kept.order.keys()
    assert projected > 500


# --- the walk against the walk it replaced -------------------------------------------

def _reference_extensions(tables):
    """The walk ``_extensions`` replaced, kept as its reference: it decides
    every default in or out, from the highest index down, drops an include
    that contradicts a chosen justification (b), and sends each complete
    candidate through ``_accepts`` for (a), (c) and (d). Masks ascend."""
    stack = [(len(tables.cons), 0, tables.background, ())]
    while stack:
        undecided, mask, consequence, justifications = stack.pop()
        if not undecided:
            if defaults._accepts(tables, mask, consequence):
                yield mask, consequence
            continue
        i = undecided - 1
        narrowed = consequence & tables.cons[i]
        chosen = (tables.just[i],) + justifications
        if all(narrowed & just for just in chosen):
            stack.append((i, mask | 1 << i, narrowed, chosen))
        stack.append((i, mask, consequence, justifications))


def test_walk_matches_the_reference_on_random_theories():
    """Each extension once, with its table, on general theories: non-normal
    defaults, shared formula objects, backgrounds and an inconsistent one."""
    rng = random.Random(811)
    several = inconsistent = 0
    for draw in range(2400):
        if draw % 2:
            theory, goal = _pooled_theory(rng)
        else:
            theory, goal = _random_theory(rng, ["x", "y", "q0"]), Var("q0")
        tables = defaults._enumeration_tables(theory, [goal])
        want = list(_reference_extensions(tables))
        assert sorted(defaults._extensions(tables)) == want
        several += len(want) > 1
        inconsistent += tables.background == 0
    assert several > 500 and inconsistent > 100


def _seeded_reduction(rng, universal, existential, valid):
    while True:
        names = [f"x{i + 1}" for i in range(universal)]
        names += [f"y{i + 1}" for i in range(existential)]
        prefix = tuple(
            (Quantifier.FORALL if i < universal else Quantifier.EXISTS, n)
            for i, n in enumerate(names)
        )
        q = Qbf(prefix, random_matrix(rng, names, 5))
        if qbf_valid_by_table(q) == valid:
            return q


@pytest.mark.parametrize("universal", [6, 7])
def test_walk_decides_reductions_past_the_cap(universal):
    """``_TheoryTables`` takes no count cap, so the walk runs on 6 and 7
    universals (13 and 15 defaults): one extension per branch, the skeptical
    answer is the QBF's validity, and at 6 universals the masks are the
    reference's."""
    rng = random.Random(812 + universal)
    for valid in (True, False, True, False):
        theory, query = reduce_qbf(_seeded_reduction(rng, universal, 6, valid))
        assert len(theory.defaults) > defaults.DEFAULT_COUNT_CAP
        goal = Var(query)
        tables = defaults._TheoryTables(theory, [goal])
        found = sorted(defaults._extensions(tables))
        if universal == 6:
            assert found == list(_reference_extensions(tables))
        assert len(found) == 2**universal
        goal_gap = tables.universe.full ^ tables.table(goal)
        assert all(consequence & goal_gap == 0 for _, consequence in found) == valid


class TestPrivateVariables:
    def _universe(self, theory, goal):
        return set(defaults._enumeration_tables(theory, [goal]).universe.order)

    def test_prerequisite_variable_is_kept(self):
        # p is never derived, so the default never fires; ``exists p. p`` would fire it
        theory, query = parse_theory("p : q / q\nquery: q\n")
        assert defaults.solve((theory, query)) == (False, "extensions=1")
        assert self._universe(theory, Var(query)) == {"p", "q"}

    def test_goal_that_is_a_consequence_keeps_its_variables(self):
        # nothing fires, and ``exists y. y | a`` would be entailed by nothing
        body = Or(Var("y"), A)
        theory = DefaultTheory((Default(P, body, body),))
        assert skeptically_entails(theory, body).holds is False
        assert self._universe(theory, body) == {"a", "p", "y"}

    def test_equal_but_separate_objects_keep_a_shared_variable(self):
        separate = DefaultTheory((Default(TRUE, And(A, Y), And(A, Y)),))
        assert self._universe(separate, A) == {"a", "y"}
        body = And(A, Y)
        shared = DefaultTheory((Default(TRUE, body, body),))
        assert self._universe(shared, A) == {"a"}
        assert skeptically_entails(separate, A) == skeptically_entails(shared, A)


# --- wide reductions -----------------------------------------------------------------

def _wide_qbf_text(existential, valid):
    """5 universals, each copied by an existential, and a disjunction over
    the other existentials: valid by construction, or made invalid by
    ``e6 & !e6``."""
    xs = " ".join(f"x{i}" for i in range(1, 6))
    es = " ".join(f"e{i}" for i in range(1, existential + 1))
    copies = " & ".join(f"(x{i} <-> e{i})" for i in range(1, 6))
    rest = " | ".join(f"e{i}" for i in range(6, existential + 1))
    contradiction = "" if valid else " & e6 & !e6"
    return f"forall {xs};\nexists {es};\n: {copies} & ({rest}){contradiction}\n"


@pytest.mark.parametrize("existential", [14, 16])
@pytest.mark.parametrize("valid", [True, False])
def test_wide_reductions_decide(existential, valid):
    theory, query = reduce_qbf(parse_qbf(_wide_qbf_text(existential, valid)))
    assert len(theory.all_variables()) == 1 + 2 * 5 + existential > ENTAILMENT_VAR_CAP
    assert defaults.solve((theory, query)) == (valid, "extensions=32")


@pytest.mark.parametrize("valid", [True, False])
def test_wide_reduction_through_the_cli(capsys, tmp_path, valid):
    source, target = tmp_path / "wide.qbf", tmp_path / "wide.dlt"
    source.write_text(_wide_qbf_text(14, valid), encoding="utf-8")
    assert main(["reduce", "--target", "default", str(source), "-o", str(target)]) == 0
    assert main(["solve", "--target", "default", str(target)]) == (0 if valid else 1)
    out, err = capsys.readouterr()
    assert out == f"{'yes' if valid else 'no'} extensions=32\n" and err == ""


def test_too_wide_a_body_is_the_bucket_cap(capsys, tmp_path):
    source, target = tmp_path / "wide.qbf", tmp_path / "wide.dlt"
    source.write_text(_wide_qbf_text(17, True), encoding="utf-8")
    assert main(["reduce", "--target", "default", str(source), "-o", str(target)]) == 0
    assert main(["solve", "--target", "default", str(target)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error[resource]: {ENTAILMENT_VAR_CAP + 1} variables in one elimination bucket exceed"
        f" ENTAILMENT_VAR_CAP={ENTAILMENT_VAR_CAP}"
    ]
