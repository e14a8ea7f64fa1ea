"""Grammar, precedence, error positions, and round-trip identity.

The recursive-descent parser and recursive serializer that the iterative
text layer replaced are kept below as reference implementations: random
token strings must parse to the same AST or fail with the same message,
line and column, and random formulas must serialize to the same bytes.
"""

import pickle
import random
import re
import sys
from dataclasses import dataclass
from typing import Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qraise.defaults import Default, DefaultTheory, parse_theory, serialize_theory
from qraise.errors import ParseError
from qraise.formulas import And, Const, FALSE, Formula, Iff, Implies, Not, Or, TRUE, Var, variables
from qraise.parsing import (
    instance_lines,
    parse_formula,
    parse_qbf,
    serialize_formula,
    serialize_qbf,
    serialize_qbf_compact,
)
from qraise.qbf import Qbf, Quantifier

from test_formulas import _random_theory_formula, formulas

# --- reference implementations: the recursive text layer ----------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow><->|->)
  | (?P<punct>[()!&|;:])
  | (?P<ident>[A-Za-z_](?:[A-Za-z0-9_+^]|-(?!>))*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"true", "false", "exists", "forall"}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # 'ident', 'op', or 'end'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        column = pos - line_start + 1
        if m.lastgroup == "ws":
            chunk = m.group()
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                line_start = pos + chunk.rindex("\n") + 1
        elif m.lastgroup == "ident":
            yield _Token("ident", m.group(), line, column)
        else:
            yield _Token("op", m.group(), line, column)
        pos = m.end()
    yield _Token("end", "", line, len(text) - line_start + 1)


class _Parser:
    def __init__(self, text: str):
        self._tokens = list(_tokenize(text))
        self._pos = 0

    @property
    def current(self) -> _Token:
        return self._tokens[self._pos]

    def advance(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "end":
            self._pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.current.kind == "op" and self.current.text == text:
            self.advance()
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.accept(text):
            tok = self.current
            shown = tok.text or "end of input"
            raise ParseError(f"expected {text!r}, found {shown!r}", tok.line, tok.column)

    def fail(self, message: str) -> ParseError:
        tok = self.current
        return ParseError(message, tok.line, tok.column)

    # formula levels, loosest first

    def formula(self) -> Formula:
        left = self.implication()
        if self.accept("<->"):
            return Iff(left, self.formula())
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.accept("->"):
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.accept("|"):
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.negation()
        while self.accept("&"):
            left = And(left, self.negation())
        return left

    def negation(self) -> Formula:
        if self.accept("!"):
            return Not(self.negation())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.current
        if tok.kind == "ident":
            self.advance()
            if tok.text == "true":
                return Const(True)
            if tok.text == "false":
                return Const(False)
            if tok.text in _KEYWORDS:
                raise ParseError(f"keyword {tok.text!r} is not a formula", tok.line, tok.column)
            return Var(tok.text)
        if self.accept("("):
            inner = self.formula()
            self.expect(")")
            return inner
        shown = tok.text or "end of input"
        raise ParseError(f"expected a formula, found {shown!r}", tok.line, tok.column)


def reference_parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    result = parser.formula()
    if parser.current.kind != "end":
        raise parser.fail(f"unexpected trailing input {parser.current.text!r}")
    return result


def reference_parse_qbf(text: str) -> Qbf:
    parser = _Parser(text)
    prefix: list[tuple[Quantifier, str]] = []
    seen: set[str] = set()
    while parser.current.kind == "ident" and parser.current.text in ("exists", "forall"):
        quant = Quantifier.EXISTS if parser.current.text == "exists" else Quantifier.FORALL
        parser.advance()
        group: list[str] = []
        while parser.current.kind == "ident":
            tok = parser.advance()
            if tok.text in _KEYWORDS:
                raise ParseError(f"keyword {tok.text!r} cannot be quantified", tok.line, tok.column)
            if tok.text.startswith("_"):
                raise ParseError(
                    f"variable {tok.text!r} uses the reserved '_' prefix", tok.line, tok.column
                )
            if tok.text in seen:
                raise ParseError(f"duplicate prefix variable {tok.text!r}", tok.line, tok.column)
            seen.add(tok.text)
            group.append(tok.text)
        if not group:
            raise parser.fail("expected at least one variable after the quantifier")
        parser.expect(";")
        prefix.extend((quant, name) for name in group)
    parser.expect(":")
    matrix = parser.formula()
    if parser.current.kind != "end":
        raise parser.fail(f"unexpected trailing input {parser.current.text!r}")
    free = sorted(variables(matrix) - seen)
    if free:
        raise ParseError(f"free variable {free[0]}", parser.current.line, parser.current.column)
    return Qbf(tuple(prefix), matrix)


_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}


def _prec(f: Formula) -> int:
    return _PREC.get(type(f), 6)


def reference_serialize_formula(f: Formula) -> str:
    if isinstance(f, Const):
        return "true" if f.value else "false"
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Not):
        inner = reference_serialize_formula(f.operand)
        if _prec(f.operand) < 5:
            inner = f"({inner})"
        return f"!{inner}"
    symbol, own = {And: ("&", 4), Or: ("|", 3), Implies: ("->", 2), Iff: ("<->", 1)}[type(f)]
    right_assoc = own <= 2
    left = reference_serialize_formula(f.left)
    right = reference_serialize_formula(f.right)
    if _prec(f.left) < own or (right_assoc and _prec(f.left) == own):
        left = f"({left})"
    if _prec(f.right) < own or (not right_assoc and _prec(f.right) == own):
        right = f"({right})"
    return f"{left} {symbol} {right}"


# --- random inputs for the differential tests ---------------------------------

_OPERATORS = ["!", "&", "|", "->", "<->", "(", ")"]
_WORDS = ["x", "y", "z", "true", "false", "exists", "forall", "_p1", "a+", "x-y", "x->y"]
_ODD = ["-", "%", "\u00e9", ";", ":"]
_SPACE = [" ", " ", " ", "", "\n", "\r", "\t"]
_BINDING_GROUPS = ["exists x y;", "forall z a+;", "exists x-y;"]
_ODD_GROUPS = [
    "exists ;", "forall x;", "exists _p1;", "forall true;", "exists x\n;", "forall", "exists x",
]


def _random_formula(rng: random.Random, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([TRUE, FALSE, Var("x"), Var("y"), Var("z"), Var("_p1"), Var("a+")])
    if rng.random() < 0.2:
        return Not(_random_formula(rng, depth - 1))
    node = rng.choice([And, Or, Implies, Iff])
    return node(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def _random_text(rng: random.Random) -> str:
    """A formula-like token string: either random pieces, or a serialized
    random formula with redundant parentheses and a few pieces edited."""
    if rng.random() < 0.5:
        pieces = [
            rng.choice(_WORDS if rng.random() < 0.45 else _OPERATORS if rng.random() < 0.9 else _ODD)
            for _ in range(rng.randint(0, 12))
        ]
    else:
        pieces = re.findall(r"<->|->|[()!&|]|[^\s()!&|<-]+", reference_serialize_formula(
            _random_formula(rng, rng.randint(0, 5))
        ))
        for _ in range(rng.randint(0, 2)):
            edit = rng.random()
            at = rng.randint(0, len(pieces))
            if edit < 0.3:
                pieces[at:at] = ["("]
                close = rng.randint(at + 1, len(pieces))
                pieces[close:close] = [")"]
            elif edit < 0.65 and pieces:
                del pieces[min(at, len(pieces) - 1)]
            else:
                pieces[at:at] = [rng.choice(_WORDS + _OPERATORS + _ODD)]
    return "".join(piece + rng.choice(_SPACE) for piece in pieces)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


class TestFormulaGrammar:
    def test_precedence_chain(self):
        f = parse_formula("a & b | c -> d <-> e")
        assert f == Iff(Implies(Or(And(Var("a"), Var("b")), Var("c")), Var("d")), Var("e"))

    def test_right_associative_implication(self):
        assert parse_formula("a -> b -> c") == Implies(Var("a"), Implies(Var("b"), Var("c")))

    def test_left_associative_conjunction(self):
        assert parse_formula("a & b & c") == And(And(Var("a"), Var("b")), Var("c"))

    def test_negation_binds_tightest(self):
        assert parse_formula("!a & b") == And(Not(Var("a")), Var("b"))

    def test_double_negation(self):
        assert parse_formula("!!a") == Not(Not(Var("a")))

    def test_parentheses(self):
        assert parse_formula("a & (b | c)") == And(Var("a"), Or(Var("b"), Var("c")))

    def test_constants(self):
        assert parse_formula("true & !false") == And(TRUE, Not(FALSE))

    def test_arrow_without_spaces(self):
        assert parse_formula("x->y") == Implies(Var("x"), Var("y"))

    def test_suffixed_names(self):
        assert parse_formula("x+ -> _q1") == Implies(Var("x+"), Var("_q1"))

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("x &\n& y")
        assert err.value.line == 2
        assert err.value.column == 1

    @pytest.mark.parametrize(
        "text, line, column, outcome",
        [
            (" x & & a", 4, 3, (4, 8)),  # the error is on the first line: both shift
            ("x &\n& y", 4, 3, (5, 1)),  # on a later line: only the line shifts
            ("x % y", 2, 10, (2, 12)),
            ("(x", 7, 5, (7, 7)),  # end of input
        ],
    )
    def test_error_position_starts_where_the_text_starts(self, text, line, column, outcome):
        with pytest.raises(ParseError) as err:
            parse_formula(text, line, column)
        assert (err.value.line, err.value.column) == outcome
        assert str(err.value) == f"{err.value.message} (line {outcome[0]}, column {outcome[1]})"

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_formula("x y")

    def test_unknown_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_formula("x % y")

    @given(formulas())
    def test_round_trip_is_identity(self, f):
        assert parse_formula(serialize_formula(f)) == f


class TestInstanceLines:
    def test_blank_lines_and_indents_are_skipped(self):
        text = "\n  H: a b\n\t\n   \nT:x\n\tother line \n"
        assert list(instance_lines(text, ("H:", "T:"))) == [
            ("H:", " a b", 2, 5),
            ("T:", "x", 5, 3),
            (None, "other line ", 6, 2),
        ]

    def test_keywords_match_exactly_and_in_order(self):
        lines = instance_lines("W : x / x\nquery : y / y\nqueryx: z\nW:w\n", ("W:", "query:"))
        assert [(keyword, body) for keyword, body, _, _ in lines] == [
            (None, "W : x / x"),
            (None, "query : y / y"),
            (None, "queryx: z"),
            ("W:", "w"),
        ]
        # The first keyword that matches wins, so a longer one goes first.
        assert next(instance_lines("action x", ("action ", "act"))) == ("action ", "x", 1, 8)
        assert next(instance_lines("action x", ("act", "action "))) == ("act", "ion x", 1, 4)

    def test_defaults_named_like_keywords_round_trip(self):
        theory = DefaultTheory(
            (
                Default(Var("W"), Var("x"), Var("x")),
                Default(Var("query"), Var("y"), Var("y")),
            )
        )
        text = serialize_theory(theory, "W")
        assert text == "W : x / x\nquery : y / y\nquery: W\n"
        assert parse_theory(text) == (theory, "W")


class TestSharedLeaves:
    """A parse makes one leaf per name and shares it; separate parses share
    nothing but the constants."""

    def test_one_leaf_per_name_within_a_parse(self):
        f = parse_formula("x & !x")
        assert f.left is f.right.operand

    def test_leaves_shared_within_a_qbf_matrix(self):
        q = parse_qbf("exists x; : (x | true) & (x -> true)")
        assert q.matrix.left.left is q.matrix.right.left
        assert q.matrix.left.right is TRUE and q.matrix.right.right is TRUE

    def test_no_leaf_shared_across_parses(self):
        first, second = parse_formula("x"), parse_formula("x")
        assert first == second and first is not second


class TestQbfFormat:
    def test_spec_shape(self):
        q = parse_qbf("exists x;\nforall y;\n: (x | !y)")
        assert q == Qbf(
            ((Quantifier.EXISTS, "x"), (Quantifier.FORALL, "y")), Or(Var("x"), Not(Var("y")))
        )

    def test_empty_prefix(self):
        assert parse_qbf(": true") == Qbf((), TRUE)

    def test_multiple_vars_per_group(self):
        q = parse_qbf("exists x y; : x & y")
        assert q.prefix == ((Quantifier.EXISTS, "x"), (Quantifier.EXISTS, "y"))

    def test_free_variable_rejected(self):
        with pytest.raises(ParseError, match="free variable x"):
            parse_qbf("forall y; : x")

    def test_duplicate_prefix_variable(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_qbf("exists x; forall x; : x")

    def test_reserved_underscore_rejected(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_qbf("exists _p1; : _p1")

    def test_keyword_cannot_be_quantified(self):
        with pytest.raises(ParseError, match="keyword"):
            parse_qbf("exists true; : true")

    def test_empty_quantifier_group(self):
        with pytest.raises(ParseError):
            parse_qbf("exists ; : true")

    def test_serialize_groups_runs(self):
        q = parse_qbf("exists x y; forall z; : x & y | z")
        assert serialize_qbf(q) == "exists x y;\nforall z;\n: x & y | z"

    def test_compact_form_reparses(self):
        q = parse_qbf("exists x; forall y; : x <-> y")
        assert parse_qbf(serialize_qbf_compact(q)) == q

    # parse_qbf finds duplicate, reserved and free names itself, from its
    # prefix and its leaf table; the checked Qbf constructor never sees them.
    @pytest.mark.parametrize(
        "text, outcome",
        [
            ("exists x;\nforall y x;\n: x", ("duplicate prefix variable 'x'", 2, 10)),
            ("forall y;\n  exists y; : y", ("duplicate prefix variable 'y'", 2, 10)),
            ("forall y;\nexists _p1; : _p1", ("variable '_p1' uses the reserved '_' prefix", 2, 8)),
            ("exists x; forall true; : x", ("keyword 'true' cannot be quantified", 1, 18)),
            ("exists x;\n: x &\n  y", ("free variable y", 3, 4)),
            ("exists x;\n: (x &\n  zz) | y", ("free variable y", 3, 10)),
            ("exists b a; : a & (c | d)", ("free variable c", 1, 26)),
        ],
    )
    def test_name_errors_keep_message_and_position(self, text, outcome):
        message, line, column = outcome
        assert _outcome(parse_qbf, text) == (f"{message} (line {line}, column {column})", line, column)

    def test_parse_equals_the_checked_constructor(self):
        rng = random.Random(19)
        names = ["x", "y", "z", "a+", "x-y"]
        for _ in range(2_000):
            picked = rng.sample(names, rng.randint(1, len(names)))
            matrix = _random_theory_formula(rng, picked, rng.randint(0, 6))
            prefix = tuple((rng.choice(list(Quantifier)), name) for name in picked)
            text = rng.choice([serialize_qbf, serialize_qbf_compact])(Qbf(prefix, matrix))
            q = parse_qbf(text)
            assert q == Qbf(q.prefix, q.matrix) == Qbf(prefix, matrix)
            assert type(q.prefix) is tuple and all(type(entry) is tuple for entry in q.prefix)
            assert pickle.loads(pickle.dumps(q)) == q

    @given(st.permutations(["x", "y", "z"]), st.tuples(st.booleans(), st.booleans(), st.booleans()))
    def test_prefix_round_trip(self, names, quants):
        prefix = tuple(
            (Quantifier.EXISTS if e else Quantifier.FORALL, n) for e, n in zip(quants, names)
        )
        q = Qbf(prefix, Or(Or(Var(names[0]), Var(names[1])), Var(names[2])))
        assert parse_qbf(serialize_qbf(q)) == q


@pytest.fixture
def deep_recursion():
    """Room for the recursive reference on 3,000 nested groups, six calls each."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 25_000))
    yield
    sys.setrecursionlimit(limit)


class TestAgainstRecursiveReference:
    def test_random_token_strings_parse_alike(self):
        rng = random.Random(7)
        for _ in range(100_000):
            body = _random_text(rng)
            assert _outcome(parse_formula, body) == _outcome(reference_parse_formula, body), body
            groups = rng.sample(_BINDING_GROUPS, rng.randint(0, 3))
            if rng.random() < 0.3:
                groups.insert(rng.randint(0, len(groups)), rng.choice(_ODD_GROUPS))
            text = " ".join(groups)
            text += rng.choice(_SPACE) + rng.choice([":", ":", ":", ""]) + body
            assert _outcome(parse_qbf, text) == _outcome(reference_parse_qbf, text), text

    def test_random_formulas_serialize_alike(self):
        rng = random.Random(11)
        for _ in range(50_000):
            f = _random_formula(rng, rng.randint(0, 7))
            assert serialize_formula(f) == reference_serialize_formula(f)

    @pytest.mark.parametrize(
        "text",
        [
            "", "x", "(x", "x)", "((x)", "!", "!(", "x &", "& x", "x y", "x ; y", "exists",
            "x & forall", "x -> -> y", "(x\n&\n)", "x\n\n  %", "\u00e9", "a -\n> b",
            "x <-> y <-> z", "x -> y -> z", "x | y | z & w", "!!(x) & !(y | z)",
            "((x -> y) <-> !z) | (true & false)",
            # whitespace absorbed into the next token, and names with '-'
            "   %", "x &\n\n   \u00e9", "x & y   ", "x & y\n\n", "\t", "x\t&\t!\ty\t",
            "x &\r\ny\r\n", "x\r\n%", "a-b->c", "x- > y", "x-", "x--y -> z-",
            # letters outside ASCII are bad characters, wherever they stand
            "x & \u00e9", "\u00e9 & x", "x\u00e9", "\u00df", "x & \u03a9y", "x\u00a0&\u2028y",
            # a bad character, or a grammar error, on line 40 of a long text
            pytest.param("x &\n" * 39 + "  y %", id="bad-character-on-line-40"),
            pytest.param("x & & y\n" + "z\n" * 38 + " %", id="grammar-error-then-bad-character"),
            pytest.param("x &\n" * 39 + "  & y", id="grammar-error-on-line-40"),
            # what starts no token: a lone '<', '>', '-', '+' or '^', or a digit
            "<", ">", "-", "+", "^", "x < y", "x > y", "x - y", "x & +y", "x ^ y", "x <- y",
            "1", "x & 1", "1x", "x1 & 2", "x -> 3y", "x1-2 -> y",
            # the quantifier keywords in a formula
            "exists x", "x & exists", "!forall", "(exists)", "exists -> x", "x -> forall y",
            # errors and a bad character past 3,000 nested '('
            pytest.param("(" * 3000 + "x", id="deep-unclosed"),
            pytest.param("(" * 3000 + "x &", id="deep-missing-operand"),
            pytest.param("(" * 3000 + "x" + ")" * 3001, id="deep-extra-close"),
            pytest.param("(" * 3000 + "x" + ")" * 3000 + " y", id="deep-trailing-input"),
            pytest.param("(" * 3000 + "x %" + ")" * 3000, id="deep-bad-character"),
        ],
    )
    def test_edge_cases_parse_alike(self, text, deep_recursion):
        assert _outcome(parse_formula, text) == _outcome(reference_parse_formula, text)
        for prefix in ("", ":", "exists x; :", "exists ;", "forall y z;\n: "):
            qbf_text = prefix + text
            assert _outcome(parse_qbf, qbf_text) == _outcome(reference_parse_qbf, qbf_text)


class TestDeepInput:
    def test_deep_mix_of_negation_and_conjunction_round_trips(self):
        # Built as text in canonical form; strings are compared because the
        # nodes' == on a 10^4-deep AST recurses.
        rng = random.Random(3)
        prefixes, suffixes, top = [], [], "x"
        for _ in range(10_000):
            if rng.random() < 0.5:
                prefixes.append("!(" if top == "&" else "!")
                suffixes.append(")" if top == "&" else "")
                top = "!"
            else:
                suffixes.append(" & y")
                top = "&"
        text = "".join(reversed(prefixes)) + "x" + "".join(suffixes)
        assert serialize_formula(parse_formula(text)) == text
