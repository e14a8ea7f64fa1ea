"""QBF validity: the recursive decider, the table decider, and their agreement."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qraise.errors import ContractError, ResourceLimitError, UnsupportedShapeError
from qraise import qbf as qbf_module
from qraise.formulas import (
    And,
    Const,
    FALSE,
    Iff,
    Implies,
    Not,
    Or,
    TRUE,
    Var,
    conjunction,
    evaluate,
    substitute,
)
from qraise.cli import main
from qraise.harness import QbfGenSpec, exhaustive_qbfs, generate_qbfs
from qraise.parsing import serialize_qbf
from qraise.qbf import QBF_VAR_CAP, Qbf, Quantifier, qbf_valid, qbf_valid_by_table, split_prefix

from test_formulas import formulas

E, A = Quantifier.EXISTS, Quantifier.FORALL


class TestValidity:
    def test_tautology_matrix(self):
        q = Qbf(((A, "y"),), Or(Var("y"), Not(Var("y"))))
        assert qbf_valid(q) is True
        assert qbf_valid_by_table(q) is True

    def test_exists_forall_biconditional(self):
        q = Qbf(((E, "x"), (A, "y")), Iff(Var("x"), Var("y")))
        assert qbf_valid(q) is False
        assert qbf_valid_by_table(q) is False

    def test_forall_exists_biconditional(self):
        q = Qbf(((A, "x"), (E, "y")), Iff(Var("x"), Var("y")))
        assert qbf_valid(q) is True
        assert qbf_valid_by_table(q) is True

    def test_single_existential(self):
        q = Qbf(((E, "x"),), Var("x"))
        assert qbf_valid(q) is True
        assert qbf_valid_by_table(q) is True

    def test_empty_prefix_evaluates_matrix(self):
        from qraise.formulas import And, FALSE, TRUE

        assert qbf_valid(Qbf((), And(TRUE, Not(FALSE)))) is True
        assert qbf_valid(Qbf((), FALSE)) is False
        assert qbf_valid_by_table(Qbf((), Not(FALSE))) is True


    def test_oracles_agree_on_wide_tables(self):
        # Twelve variables give 4096-bit tables, well past one machine word.
        qbfs = list(generate_qbfs(QbfGenSpec(seed=3, num_vars=12, matrix_depth=7, count=60)))
        assert max(len(q.prefix) for q in qbfs) == 12
        assert all(qbf_valid(q) == qbf_valid_by_table(q) for q in qbfs)


def _qbf(*prefix):
    return Qbf(prefix, conjunction(Or(Var(n), Not(Var(n))) for _, n in prefix))


class TestSplitPrefix:
    @pytest.mark.parametrize(
        "shape,outer,inner",
        [
            ("ea", ((E, "x"), (E, "y")), ((A, "z"),)),
            ("ea", (), ((A, "z"),)),
            ("ae", ((A, "x"),), ((E, "y"), (E, "z"))),
            ("ae", ((A, "x"), (A, "y")), ()),
            ("any", ((A, "x"), (E, "y"), (A, "z")), ()),
        ],
    )
    def test_accepts_its_shape(self, shape, outer, inner):
        assert split_prefix(_qbf(*outer, *inner), shape) == (outer, inner)

    @pytest.mark.parametrize(
        "shape,prefix,message",
        [
            (
                "ea",
                ((E, "x"), (A, "y"), (E, "z")),
                "prefix is not exists*-forall*: existential after universal",
            ),
            (
                "ae",
                ((A, "x"), (E, "y"), (A, "z")),
                "prefix is not forall*-exists*: universal after existential",
            ),
        ],
    )
    def test_rejects_a_misordered_prefix(self, shape, prefix, message):
        with pytest.raises(UnsupportedShapeError) as caught:
            split_prefix(_qbf(*prefix), shape)
        assert str(caught.value) == message


class TestConstruction:
    def test_free_matrix_variable_rejected(self):
        with pytest.raises(ContractError, match="^free matrix variable: x, z$"):
            Qbf(((A, "y"),), And(Var("z"), Or(Var("x"), Var("y"))))

    def test_duplicate_prefix_variable_rejected(self):
        with pytest.raises(ContractError, match="^duplicate prefix variable: x, y$"):
            Qbf(((A, "y"), (A, "x"), (E, "x"), (E, "y")), Var("x"))

    def test_prefix_cap(self):
        names = [f"v{i}" for i in range(QBF_VAR_CAP + 1)]
        q = Qbf(tuple((E, n) for n in names), Var(names[0]))
        with pytest.raises(ResourceLimitError):
            qbf_valid(q)
        with pytest.raises(ResourceLimitError):
            qbf_valid_by_table(q)


def _random_matrix_reference(rng, names, depth):
    """``qbf.random_matrix`` as it was when it built a node per leaf."""
    if depth == 0 or rng.random() < 0.22:
        if not names or rng.random() < 0.12:
            return Const(rng.random() < 0.5)
        return Var(rng.choice(list(names)))
    if names and rng.random() < 0.15:
        v = Var(rng.choice(list(names)))
        fragment = Or(v, Not(v)) if rng.random() < 0.5 else And(v, Not(v))
        other = _random_matrix_reference(rng, names, depth - 1)
        conn = rng.choice(qbf_module.CONNECTIVES)
        return conn(fragment, other) if rng.random() < 0.5 else conn(other, fragment)
    if rng.random() < 0.25:
        return Not(_random_matrix_reference(rng, names, depth - 1))
    conn = rng.choice(qbf_module.CONNECTIVES)
    return conn(
        _random_matrix_reference(rng, names, depth - 1),
        _random_matrix_reference(rng, names, depth - 1),
    )


def _leaves(f):
    stack, out = [f], []
    while stack:
        node = stack.pop()
        if isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (Var, Const)):
            out.append(node)
        else:
            stack += (node.left, node.right)
    return out


class TestRandomMatrix:
    """The draws, and so every seeded stream of the harness and of each
    target's ``sample_merge``, are those of the node-per-leaf reference."""

    def test_draws_match_the_reference_tree_and_rng_state(self):
        seeds = random.Random(28)
        for _ in range(600):
            seed = seeds.getrandbits(32)
            names = [f"x{i + 1}" for i in range(seeds.randint(0, 5))]
            depth = seeds.randint(0, 6)
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(3):
                got = qbf_module.random_matrix(ours, names, depth)
                assert repr(got) == repr(_random_matrix_reference(theirs, names, depth))
                assert ours.getstate() == theirs.getstate()

    def test_leaves_of_one_name_are_one_object(self):
        rng = random.Random(5)
        for _ in range(300):
            names = [f"x{i + 1}" for i in range(rng.randint(0, 5))]
            matrix = qbf_module.random_matrix(rng, names, rng.randint(0, 6))
            objects = {}
            for leaf in _leaves(matrix):
                if isinstance(leaf, Const):
                    assert leaf is (TRUE if leaf.value else FALSE)
                else:
                    assert objects.setdefault(leaf.name, leaf) is leaf


_NAMES = tuple(f"v{i}" for i in range(1, 7))


def _quants_and_matrix(n):
    """A quantifier bit for each of the first ``n`` names, and a matrix that
    need not mention all of them."""
    quant_bits = st.lists(st.booleans(), min_size=n, max_size=n)
    return st.tuples(quant_bits, formulas(_NAMES[:n], max_leaves=10))


@given(st.integers(5, 6).flatmap(_quants_and_matrix))
@settings(max_examples=300)
def test_oracles_agree(drawn):
    quant_bits, matrix = drawn
    prefix = tuple((E if bit else A, name) for bit, name in zip(quant_bits, _NAMES))
    q = Qbf(prefix, matrix)
    assert qbf_valid(q) == _valid_by_assignment(prefix, matrix) == qbf_valid_by_table(q)


def _valid_by_substitution(prefix, matrix):
    """The substitution recursion the assignment walk replaced: each prefix
    node splits the matrix into its two substituted copies."""
    if not prefix:
        return evaluate(matrix, {})
    (quant, name), rest = prefix[0], prefix[1:]
    on_true = _valid_by_substitution(rest, substitute(matrix, name, True))
    if quant is E:
        return on_true or _valid_by_substitution(rest, substitute(matrix, name, False))
    return on_true and _valid_by_substitution(rest, substitute(matrix, name, False))


def _valid_by_assignment(prefix, matrix, depth=0, assignment=None):
    """The assignment walk before it skipped unread variables: every
    non-deciding true branch is followed by the false branch."""
    assignment = {} if assignment is None else assignment
    if depth == len(prefix):
        return evaluate(matrix, assignment)
    quant, name = prefix[depth]
    deciding = quant is E
    for value in (True, False):
        assignment[name] = value
        if _valid_by_assignment(prefix, matrix, depth + 1, assignment) == deciding:
            return deciding
    return not deciding


def _wide_qbfs(seed, count, n):
    """``count`` QBFs over exactly ``n`` prefix variables with random
    quantifiers. The matrix mentions a random number of them, so some
    levels are skipped and others are not."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(1, n + 1)]
    connectives = (And, Or, Implies, Iff)

    def tree(picks):
        if len(picks) == 1:
            return Not(Var(picks[0])) if rng.random() < 0.3 else Var(picks[0])
        half = rng.randint(1, len(picks) - 1)
        return rng.choice(connectives)(tree(picks[:half]), tree(picks[half:]))

    for _ in range(count):
        mentioned = rng.sample(names, rng.randint(1, n))
        picks = mentioned + [rng.choice(mentioned) for _ in range(rng.randint(0, 6))]
        rng.shuffle(picks)
        yield Qbf(tuple((rng.choice((E, A)), name) for name in names), tree(picks))


def test_recursive_oracle_matches_substitution_reference():
    exhaustive = list(exhaustive_qbfs(3, 3, "any"))
    seeded = list(generate_qbfs(QbfGenSpec(seed=17, num_vars=12, matrix_depth=6, count=200)))
    assert max(len(q.prefix) for q in seeded) == 12
    for q in exhaustive + seeded:
        expected = _valid_by_substitution(q.prefix, q.matrix)
        assert qbf_valid(q) == expected == qbf_valid_by_table(q)
        assert _valid_by_assignment(q.prefix, q.matrix) == expected


def test_recursive_oracle_matches_the_full_walk_at_sixteen_variables():
    wide = list(_wide_qbfs(seed=23, count=40, n=16))
    assert {len(q.prefix) for q in wide} == {16}
    answers = [qbf_valid(q) for q in wide]
    assert 10 <= sum(answers) <= 30
    for q, answer in zip(wide, answers):
        expected = _valid_by_substitution(q.prefix, q.matrix)
        assert answer == expected == qbf_valid_by_table(q)
        assert _valid_by_assignment(q.prefix, q.matrix) == expected


def _iff_chain_qbf(n):
    """∀ over ``v0`` .. ``v{n-1}`` with the matrix ``P | !P``, ``P`` the ↔
    chain over all of them: valid, and every leaf of the walk is evaluated."""
    names = [f"v{i}" for i in range(n)]
    chain = Var(names[0])
    for name in names[1:]:
        chain = Iff(chain, Var(name))
    return Qbf(tuple((A, name) for name in names), Or(chain, Not(chain)))


class TestAtTheCap:
    def test_both_oracles_decide_the_worst_case_at_the_cap(self, monkeypatch):
        q = _iff_chain_qbf(QBF_VAR_CAP)
        evaluate_reading = qbf_module.evaluate_reading
        leaves = []

        def counting(f, assignment, read):
            leaves.append(None)
            return evaluate_reading(f, assignment, read)

        monkeypatch.setattr(qbf_module, "evaluate_reading", counting)
        assert qbf_valid(q) is True
        assert len(leaves) == 2**QBF_VAR_CAP
        assert qbf_valid_by_table(q) is True

    def test_one_more_variable_exits_three(self, capsys, tmp_path):
        assert QBF_VAR_CAP == 18
        source = tmp_path / "wide.qbf"
        source.write_text(serialize_qbf(_iff_chain_qbf(19)), encoding="utf-8")
        assert main(["validate", str(source)]) == 3
        assert capsys.readouterr() == (
            "", "error[resource]: 19 prefix variables exceed QBF_VAR_CAP=18\n"
        )


class TestSkip:
    @staticmethod
    def matrix_evaluations(monkeypatch, q):
        """The assignments under which ``qbf_valid`` evaluates the whole
        matrix of ``q``, in order."""
        evaluate_reading = qbf_module.evaluate_reading
        calls = []

        def counting(f, assignment, read):
            if f is q.matrix:
                calls.append(dict(assignment))
            return evaluate_reading(f, assignment, read)

        monkeypatch.setattr(qbf_module, "evaluate_reading", counting)
        qbf_valid(q)
        return calls

    def test_unread_variables_are_not_branched_on(self, monkeypatch):
        names = [f"v{i}" for i in range(1, 17)]
        q = Qbf(tuple((A, n) for n in names), Or(Var("v1"), Not(Var("v1"))))
        calls = self.matrix_evaluations(monkeypatch, q)
        # The full walk evaluates this matrix 2**16 times.
        assert [c["v1"] for c in calls] == [True, False]

    @pytest.mark.parametrize(
        "matrix,evaluated",
        [
            # x=true decides without reading y or z, so neither is branched
            # on; under x=false, y=true reads y but not z.
            (
                Or(Var("x"), Or(Var("y"), Var("z"))),
                ["TTT", "FTT", "FFT", "FFF"],
            ),
            # y is read under x=true but not under x=false, where its false
            # branch is skipped; z is never read.
            (
                Implies(Var("x"), Or(Var("y"), Not(Var("y")))),
                ["TTT", "TFT", "FTT"],
            ),
        ],
    )
    def test_a_variable_is_branched_on_only_where_it_was_read(self, monkeypatch, matrix, evaluated):
        q = Qbf(((A, "x"), (A, "y"), (A, "z")), matrix)
        calls = self.matrix_evaluations(monkeypatch, q)
        assert ["".join("TF"[not c[v]] for v in "xyz") for c in calls] == evaluated
