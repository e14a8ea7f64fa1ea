"""Text formats for formulas and QBFs.

Formula grammar (loosest binding first)::

    iff  := imp ('<->' iff)?          right-associative
    imp  := or  ('->' imp)?           right-associative
    or   := and ('|' and)*            left-associative
    and  := not ('&' not)*            left-associative
    not  := '!' not | atom
    atom := 'true' | 'false' | ident | '(' iff ')'

Identifiers match ``[A-Za-z_][A-Za-z0-9_+^-]*``, except that a ``-``
directly followed by ``>`` ends the identifier so that ``x->y`` lexes as an
implication. A QBF file is a sequence of ``exists v ... ;`` / ``forall v
... ;`` groups, outermost first, closed by ``: <formula>``. Line breaks are
insignificant; serialization is line oriented.

Names starting with ``_`` are reserved for generated gadget variables:
``parse_qbf`` rejects them in user input, while ``parse_formula`` accepts
them so that generated instance files round-trip.

Neither direction recurses, so nesting depth is bounded only by memory.
The grammar's binary levels are one table, ``_BINARY``, giving each
connective its strength and node (the arrows associate right, ``|`` and
``&`` left); the parser's and the serializer's tables derive from it.
``_formula`` is one operator-precedence loop (Dijkstra's shunting-yard)
whose pending stack holds ints above a bottom sentinel: 0 for ``(``, 1-4
for a connective's strength, 5 for ``!``. The operand being built is a
local; only the left operands of pending connectives are stacked. Each
``!`` is applied as soon as its operand is complete, so applying a
connective never meets one. ``serialize_formula`` emits pieces left to
right from an explicit stack: whether a child needs parentheses depends
only on its own connective and its parent's.

The tokenizer is one ``findall``: a list of plain token strings, with the
whitespace skipped and any other character that starts no token kept as a
one-character token of its own. The grammar checks every token it takes,
so such a bad character always ends the parse in an error. Offsets are
found only then: ``_error`` scans the text again for the failing token,
and reports the first bad character instead if there is one anywhere, so
a bad character still comes before any grammar error. A parse makes
one ``Var`` per distinct name and shares it wherever the name occurs;
``true`` and ``false`` are ``formulas.TRUE`` and ``FALSE``. Leaves are
shared within a parse, never across parses: two parses of the same text
give separate objects, which ``defaults._TheoryTables`` tells apart by
identity. ``parse_qbf`` takes the matrix's names from that leaf table, and
since that already rules out duplicate and free names, it builds its
``Qbf`` without the constructor's own walk over the matrix.

The three instance formats are line oriented, and one reader serves them
all: ``instance_lines`` skips blank lines and indents and splits each line
into the first of the target's keywords it starts with (exactly, as
``str.startswith`` does, so ``W : x / x`` is no ``W:`` line) and the body
after it, with the line and column where the body starts. The targets hand
those to ``parse_formula``, so a formula error names its place in the file,
not in the formula's text. As for a QBF, the place is worked out only when
the error is raised. The names on a line (a query, fluents, hypotheses,
effect literals) are held to ``formulas.check_name``'s pattern by one match
of the whole line, and a bad name's place, too, is found only for the error.
"""

from __future__ import annotations

import re
import string
from typing import Iterator

from .errors import ParseError
from .formulas import FALSE, NAME, NAME_RE, TRUE, And, Const, Formula, Iff, Implies, Not, Or, Var
from .formulas import check_formula
from .qbf import Qbf, Quantifier

# One match per token: an identifier, an operator, or any other single
# non-space character, which is a bad one. Whitespace matches nothing, so
# ``findall`` skips it. ``_SCAN_RE`` is the same scan with the bad character
# as group 1, for ``_error``.
_IDENT = r"[A-Za-z_][A-Za-z0-9_+^]*(?:-(?!>)[A-Za-z0-9_+^]*)*"
_OPERATOR = r"<->|->|[()!&|;:]"
_TOKEN_RE = re.compile(rf"{_IDENT}|{_OPERATOR}|\S")
_SCAN_RE = re.compile(rf"{_IDENT}|{_OPERATOR}|(\S)")
_IDENT_START = frozenset(string.ascii_letters + "_")
# The words of an instance line, and whole lines of names or of literals (a
# name or ``!`` and a name). Each name is followed by a space or the end, so
# a failed match cannot backtrack into ways of cutting a name in two.
_WORD_RE = re.compile(r"\S+")
_NAMES_RE = re.compile(rf"\s*(?:{NAME}(?:\s+|\Z))*\Z")
_LITERALS_RE = re.compile(rf"\s*(?:!?{NAME}(?:\s+|\Z))*\Z")

_KEYWORDS = {"true", "false", "exists", "forall"}

# The leaves every parse starts from. A parse adds one ``Var`` per name it
# meets to its own copy; a table shared across parses would make separate
# formulas share objects, and ``defaults._TheoryTables`` tells them apart by id.
_CONSTANTS: dict[str, Formula] = {"true": TRUE, "false": FALSE}

# Binary connectives by symbol: (strength, node); larger binds tighter and
# ``!`` binds tightest, at 5. Below it: the node by strength, and by symbol
# the strength and the least strength applied first (the arrows associate right).
_BINARY = {"<->": (1, Iff), "->": (2, Implies), "|": (3, Or), "&": (4, And)}
_NODE = (None, *(node for _, node in sorted(_BINARY.values(), key=lambda entry: entry[0])))
_CONNECTIVE = {symbol: (own, own + (own <= 2)) for symbol, (own, _) in _BINARY.items()}


def _is_ident(token: str) -> bool:
    return token[:1] in _IDENT_START  # the end marker "" is not


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``, then "" for the end of input."""
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


def _error(text: str, index: int, message: str) -> ParseError:
    """``message`` at token ``index`` of ``text`` (the end of input past the
    last token), unless ``text`` has a bad character: the first one is the
    error then, wherever it is."""
    offset = len(text)
    for count, m in enumerate(_SCAN_RE.finditer(text)):
        if m.lastindex:
            offset, message = m.start(), f"unexpected character {m[1]!r}"
            break
        if count == index:
            offset = m.start()
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, line_start) + 1, offset - line_start + 1)


def _expect(text: str, tokens: list[str], i: int, symbol: str) -> int:
    """The index after ``tokens[i]``, which must be ``symbol``."""
    if tokens[i] != symbol:
        raise _error(text, i, f"expected {symbol!r}, found {tokens[i] or 'end of input'!r}")
    return i + 1


def _formula(
    text: str, tokens: list[str], i: int, leaves: dict[str, Formula]
) -> tuple[Formula, int]:
    """Parse the formula that starts at ``tokens[i]``; return it and the
    index of the first token after it. ``leaves`` maps each name met so far
    in this parse to its one leaf; it starts as a copy of ``_CONSTANTS``."""
    operands: list[Formula] = []  # the left operand of each pending connective
    pending = [-1]  # 0 for '(', 1-4 a connective's strength, 5 for '!'; -1 is the bottom
    push, pop, hold, take = pending.append, pending.pop, operands.append, operands.pop
    node, connective = _NODE, _CONNECTIVE.get
    while True:
        word = tokens[i]
        i += 1
        operand = leaves.get(word)
        if operand is None:
            if word == "!" or word == "(":
                push(5 if word == "!" else 0)
                continue
            if not _is_ident(word):
                raise _error(text, i - 1, f"expected a formula, found {word or 'end of input'!r}")
            if word in ("exists", "forall"):
                raise _error(text, i - 1, f"keyword {word!r} is not a formula")
            operand = leaves[word] = Var(word)
        # The operand is complete: apply its '!'s, close groups until a connective.
        while True:
            while pending[-1] == 5:
                pop()
                operand = Not(operand)
            entry = connective(tokens[i])
            if entry is not None:
                break
            top = pop()
            while top > 0:
                operand = node[top](take(), operand)
                top = pop()
            if top < 0:
                return operand, i
            i = _expect(text, tokens, i, ")")
        own, least = entry
        while pending[-1] >= least:
            operand = node[pop()](take(), operand)
        hold(operand)
        push(own)
        i += 1


def _expect_end(text: str, tokens: list[str], i: int) -> None:
    if tokens[i]:
        raise _error(text, i, f"unexpected trailing input {tokens[i]!r}")


def parse_formula(text: str, line: int = 1, column: int = 1) -> Formula:
    """Parse a bare formula; trailing garbage is an error. ``text`` starts
    at ``line`` and ``column`` of its file, and an error says where in the
    file it is."""
    tokens = _tokenize(text)
    try:
        result, i = _formula(text, tokens, 0, dict(_CONSTANTS))
        _expect_end(text, tokens, i)
    except ParseError as exc:
        shift = column - 1 if exc.line == 1 else 0
        raise ParseError(exc.message, exc.line + line - 1, exc.column + shift) from None
    return result


def instance_lines(
    text: str, keywords: tuple[str, ...]
) -> Iterator[tuple[str | None, str, int, int]]:
    """The non-blank lines of an instance file, each as ``(keyword, body,
    line, column)``. ``keyword`` is the first of ``keywords`` that the line
    starts with once its indent is skipped, or ``None``; ``body`` is the rest
    of the line after it, and starts at ``column``."""
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.lstrip()
        if line:
            column = len(raw) - len(line) + 1
            for keyword in keywords:
                if line.startswith(keyword):
                    yield keyword, line[len(keyword):], number, column + len(keyword)
                    break
            else:
                yield None, line, number, column


def parse_names(body: str, line: int, column: int) -> list[str]:
    """The names on an instance line: ``body``, which starts at ``column``,
    split at whitespace. Each must match ``formulas.check_name``'s pattern."""
    if not _NAMES_RE.match(body):
        raise _name_error(body, line, column)
    return body.split()


def parse_literals(body: str, line: int, column: int) -> list[tuple[str, bool]]:
    """The literals ``x`` and ``!x`` on an instance line, as (name, value)."""
    if not _LITERALS_RE.match(body):
        raise _name_error(body, line, column, "!")
    return [(lit[1:], False) if lit.startswith("!") else (lit, True) for lit in body.split()]


def parse_one_name(body: str, line: int, column: int) -> str:
    """The one name an instance line's ``body`` holds."""
    names = parse_names(body, line, column)
    if not names:
        raise ParseError("expected a variable name", line, column)
    if len(names) > 1:
        at = column + list(_WORD_RE.finditer(body))[1].start()
        raise ParseError(f"expected one variable name, found {names[1]!r}", line, at)
    return names[0]


def _name_error(body: str, line: int, column: int, sign: str = "") -> ParseError:
    """The error at the first word of ``body`` that is no name once ``sign`` is taken off."""
    for word in _WORD_RE.finditer(body):
        name = word[0].removeprefix(sign)
        if not NAME_RE.match(name):
            message = f"invalid variable name {name!r}" if name else "expected a variable name"
            return ParseError(message, line, column + word.end() - len(name))
    raise ValueError(f"every word of {body!r} is a name")


def parse_qbf(text: str) -> Qbf:
    """Parse a closed QBF in the quantifier-lines format."""
    tokens = _tokenize(text)
    prefix: list[tuple[Quantifier, str]] = []
    seen: set[str] = set()
    i = 0
    while tokens[i] in ("exists", "forall"):
        quant = Quantifier.EXISTS if tokens[i] == "exists" else Quantifier.FORALL
        i += 1
        group: list[str] = []
        while _is_ident(tokens[i]):
            name = tokens[i]
            if name in _KEYWORDS:
                raise _error(text, i, f"keyword {name!r} cannot be quantified")
            if name.startswith("_"):
                raise _error(text, i, f"variable {name!r} uses the reserved '_' prefix")
            if name in seen:
                raise _error(text, i, f"duplicate prefix variable {name!r}")
            seen.add(name)
            group.append(name)
            i += 1
        if not group:
            raise _error(text, i, "expected at least one variable after the quantifier")
        i = _expect(text, tokens, i, ";")
        prefix.extend((quant, name) for name in group)
    leaves = dict(_CONSTANTS)
    matrix, i = _formula(text, tokens, _expect(text, tokens, i, ":"), leaves)
    _expect_end(text, tokens, i)
    free = sorted(leaves.keys() - _CONSTANTS.keys() - seen)
    if free:
        raise _error(text, i, f"free variable {free[0]}")
    return Qbf._trusted(tuple(prefix), matrix)


# --- serialization -----------------------------------------------------------

# Per binary node: its text, and the least strength each child needs to go
# without parentheses. The arrows associate right, so a left child of the
# same connective needs them; ``|`` and ``&`` associate left.
class _Text(str):
    """A piece of ``serialize_formula``'s output on its stack. Its own class
    tells it from a stray ``str`` in the tree, which is no node."""

    __slots__ = ()


_OPEN, _CLOSE = _Text("("), _Text(")")
_BINARY_TEXT = {
    node: (_Text(f" {symbol} "), own + (own <= 2), own + (own > 2))
    for symbol, (own, node) in _BINARY.items()
}
_STRENGTH = {node: own for own, node in _BINARY.values()} | {Not: 5}


def serialize_formula(f: Formula) -> str:
    """Render with minimal parentheses; ``parse_formula`` inverts exactly."""
    out: list[str] = []
    stack: list[Formula | _Text] = [f]  # what is left to render, next piece last
    try:
        while stack:
            item = stack.pop()
            cls = item.__class__
            if cls is _Text:
                out.append(item)
            elif cls is Var:
                out.append(item.name)
            elif cls is Not:
                out.append("!")
                child = item.operand
                if _STRENGTH.get(child.__class__, 6) < 5:
                    stack += (_CLOSE, child, _OPEN)
                else:
                    stack.append(child)
            elif cls is Const:
                out.append("true" if item.value else "false")
            else:
                symbol, left_least, right_least = _BINARY_TEXT[cls]
                child = item.right
                if _STRENGTH.get(child.__class__, 6) < right_least:
                    stack += (_CLOSE, child, _OPEN)
                else:
                    stack.append(child)
                stack.append(symbol)
                child = item.left
                if _STRENGTH.get(child.__class__, 6) < left_least:
                    stack += (_CLOSE, child, _OPEN)
                else:
                    stack.append(child)
    except KeyError:  # a class that is no node has no entry in _BINARY_TEXT
        check_formula(f)
        raise
    return "".join(out)


def serialize_qbf(q: Qbf) -> str:
    """Render in the line-oriented format, grouping runs of equal quantifiers."""
    lines: list[str] = []
    run: list[str] = []
    run_quant: Quantifier | None = None
    for quant, name in q.prefix:
        if quant is run_quant:
            run.append(name)
        else:
            if run:
                lines.append(f"{run_quant.value} {' '.join(run)};")  # type: ignore[union-attr]
            run = [name]
            run_quant = quant
    if run:
        lines.append(f"{run_quant.value} {' '.join(run)};")  # type: ignore[union-attr]
    lines.append(f": {serialize_formula(q.matrix)}")
    return "\n".join(lines)


def serialize_qbf_compact(q: Qbf) -> str:
    """One-line rendering, still parseable by ``parse_qbf``."""
    return serialize_qbf(q).replace("\n", " ")
