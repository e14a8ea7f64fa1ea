"""QBF validity: the recursive decider, the table decider, and their agreement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qraise.errors import ContractError, ResourceLimitError, UnsupportedShapeError
from qraise.formulas import Iff, Not, Or, Var, conjunction, evaluate, substitute
from qraise.harness import QbfGenSpec, exhaustive_qbfs, generate_qbfs
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
        with pytest.raises(ContractError, match="free matrix variable"):
            Qbf(((A, "y"),), Var("x"))

    def test_duplicate_prefix_variable_rejected(self):
        with pytest.raises(ContractError, match="duplicate"):
            Qbf(((A, "x"), (E, "x")), Var("x"))

    def test_prefix_cap(self):
        names = [f"v{i}" for i in range(QBF_VAR_CAP + 1)]
        q = Qbf(tuple((E, n) for n in names), Var(names[0]))
        with pytest.raises(ResourceLimitError):
            qbf_valid(q)
        with pytest.raises(ResourceLimitError):
            qbf_valid_by_table(q)


@given(
    formulas(max_leaves=6),
    st.lists(st.booleans(), min_size=3, max_size=3),
)
@settings(max_examples=150)
def test_oracles_agree(f, quant_bits):
    prefix = tuple(
        (E if bit else A, name) for bit, name in zip(quant_bits, ("x", "y", "z"))
    )
    q = Qbf(prefix, f)
    assert qbf_valid(q) == qbf_valid_by_table(q)


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


def test_recursive_oracle_matches_substitution_reference():
    exhaustive = list(exhaustive_qbfs(3, 3, "any"))
    seeded = list(generate_qbfs(QbfGenSpec(seed=17, num_vars=12, matrix_depth=6, count=200)))
    assert max(len(q.prefix) for q in seeded) == 12
    for q in exhaustive + seeded:
        expected = _valid_by_substitution(q.prefix, q.matrix)
        assert qbf_valid(q) == expected == qbf_valid_by_table(q)
