"""Exception types shared across the package."""

from __future__ import annotations


class QraiseError(Exception):
    """Base class for all package-specific errors."""


class ParseError(QraiseError):
    """Malformed input text. Carries the 1-based line and column."""

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


class UnsupportedShapeError(ContractError):
    """The quantifier prefix does not have the shape a construction supports."""


class ResourceLimitError(QraiseError):
    """An exact (exponential) procedure was asked to exceed its hard cap.

    Raised instead of silently truncating the search.
    """
