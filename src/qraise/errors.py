"""Exception types shared across the package. Each class carries the ``error[<code>]``
code and the exit status that ``cli.main`` reports for it; subclasses inherit both."""

from __future__ import annotations


class QraiseError(Exception):
    """Base class for all package-specific errors."""

    code = "internal"
    status = 2


class ParseError(QraiseError):
    """Malformed input text. Carries the 1-based line and column."""

    code = "parse"

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class EvaluationError(QraiseError):
    """A formula was evaluated against an assignment missing one of its variables."""


class ContractError(QraiseError):
    """A caller violated an operation's precondition (freshness, name collision,
    malformed value, ...)."""

    code = "contract"


class UnsupportedShapeError(ContractError):
    """The quantifier prefix does not have the shape a construction supports."""


class ResourceLimitError(QraiseError):
    """An exact (exponential) procedure was asked to exceed its hard cap.

    Raised instead of silently truncating the search.
    """

    code = "resource"
    status = 3


def check_cap(count: int, what: str, name: str, cap: int) -> None:
    """Raise ``ResourceLimitError`` naming the cap constant ``name`` if
    ``count`` of ``what`` exceed its value ``cap``."""
    if count > cap:
        raise ResourceLimitError(f"{count} {what} exceed {name}={cap}")
