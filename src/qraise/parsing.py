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
connective its strength; the arrows associate right, ``|`` and ``&``
left. ``_formula`` is one operator-precedence loop (Dijkstra's
shunting-yard) over a stack of operands and a stack of pending ``(``,
``!`` and connectives. ``serialize_formula`` emits pieces left to right
from an explicit stack: whether a child needs parentheses depends only on
its own connective and its parent's.

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
the error is raised.
"""

from __future__ import annotations

import re
import string
from typing import Iterator

from .errors import ParseError
from .formulas import FALSE, TRUE, And, Const, Formula, Iff, Implies, Not, Or, Var
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

_KEYWORDS = {"true", "false", "exists", "forall"}

# The leaves every parse starts from. A parse adds one ``Var`` per name it
# meets to its own copy; a table shared across parses would make separate
# formulas share objects, and ``defaults._TheoryTables`` tells them apart by id.
_CONSTANTS: dict[str, Formula] = {"true": TRUE, "false": FALSE}

# Binary connectives by symbol: (strength, node). Larger binds tighter;
# ``!`` binds tighter than all of them, at strength 5.
_BINARY = {"<->": (1, Iff), "->": (2, Implies), "|": (3, Or), "&": (4, And)}


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


def _reduce(operands: list[Formula], pending: list[str], strength: int) -> None:
    """Apply the pending operators above the innermost ``(`` that bind at
    least ``strength`` tightly."""
    while pending and pending[-1] != "(":
        if pending[-1] == "!":
            operands.append(Not(operands.pop()))
        else:
            own, node = _BINARY[pending[-1]]
            if own < strength:
                return
            right = operands.pop()
            operands.append(node(operands.pop(), right))
        pending.pop()


def _formula(
    text: str, tokens: list[str], i: int, leaves: dict[str, Formula]
) -> tuple[Formula, int]:
    """Parse the formula that starts at ``tokens[i]``; return it and the
    index of the first token after it. ``leaves`` maps each name met so far
    in this parse to its one leaf; it starts as a copy of ``_CONSTANTS``."""
    operands: list[Formula] = []
    pending: list[str] = []
    while True:
        word = tokens[i]
        i += 1
        if word in ("!", "("):
            pending.append(word)
            continue
        leaf = leaves.get(word)
        if leaf is None:
            if not _is_ident(word):
                raise _error(text, i - 1, f"expected a formula, found {word or 'end of input'!r}")
            if word in ("exists", "forall"):
                raise _error(text, i - 1, f"keyword {word!r} is not a formula")
            leaf = leaves[word] = Var(word)
        operands.append(leaf)
        # The operand is complete: close groups until a connective follows.
        while tokens[i] not in _BINARY:
            if pending and pending[-1] != "(":
                _reduce(operands, pending, 0)
            if not pending:
                return operands[0], i
            i = _expect(text, tokens, i, ")")
            pending.pop()
        word = tokens[i]
        if pending and pending[-1] != "(":
            own = _BINARY[word][0]
            _reduce(operands, pending, own + (own <= 2))  # the arrows associate right
        pending.append(word)
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
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.lstrip()
        if line:
            column = len(raw) - len(line) + 1
            for keyword in keywords:
                if line.startswith(keyword):
                    yield keyword, line[len(keyword):], number, column + len(keyword)
                    break
            else:
                yield None, line, number, column


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
_BINARY_TEXT = {
    node: (f" {symbol} ", own + (own <= 2), own + (own > 2))
    for symbol, (own, node) in _BINARY.items()
}
_STRENGTH = {node: own for own, node in _BINARY.values()} | {Not: 5}


def serialize_formula(f: Formula) -> str:
    """Render with minimal parentheses; ``parse_formula`` inverts exactly."""
    out: list[str] = []
    stack: list[Formula | str] = [f]  # what is left to render, next piece last
    while stack:
        item = stack.pop()
        cls = item.__class__
        if cls is str:
            out.append(item)
        elif cls is Var:
            out.append(item.name)
        elif cls is Not:
            out.append("!")
            child = item.operand
            if _STRENGTH.get(child.__class__, 6) < 5:
                stack += (")", child, "(")
            else:
                stack.append(child)
        elif cls is Const:
            out.append("true" if item.value else "false")
        else:
            symbol, left_least, right_least = _BINARY_TEXT[cls]
            child = item.right
            if _STRENGTH.get(child.__class__, 6) < right_least:
                stack += (")", child, "(")
            else:
                stack.append(child)
            stack.append(symbol)
            child = item.left
            if _STRENGTH.get(child.__class__, 6) < left_least:
                stack += (")", child, "(")
            else:
                stack.append(child)
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
