"""Shared diagnostic types used by the QASM front end and IR validation."""

from __future__ import annotations

from typing import NamedTuple


class _SourceSpan(NamedTuple):
    start_line: int
    start_col: int
    end_line: int
    end_col: int


class SourceSpan(_SourceSpan):
    """Inclusive 1-based region of source text."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SourceSpan":
        self = super().__new__(cls, *args, **kwargs)
        if (self.end_line, self.end_col) < (self.start_line, self.start_col):
            raise ValueError("span end precedes span start")
        return self


class Diagnostic(NamedTuple):
    """A parse or validation finding.

    ``span`` is None only for diagnostics produced from an in-memory circuit
    (no source text to point into); the parser always attaches real spans.
    """

    severity: str  # "error" | "warning"
    message: str
    span: SourceSpan | None = None

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def __str__(self) -> str:
        if self.span is None:
            return f"{self.severity}: {self.message}"
        return (
            f"{self.severity}: {self.message} "
            f"(line {self.span.start_line}, col {self.span.start_col})"
        )
