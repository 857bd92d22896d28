"""Source-location diagnostics shared by the text front ends."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    message: str

    def render(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


class DiagnosticError(Exception):
    """Parse or validation failure carrying every collected diagnostic."""

    def __init__(self, diagnostics: list[Diagnostic] | tuple[Diagnostic, ...]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(d.render() for d in self.diagnostics))


def fail(line: int, column: int, message: str) -> DiagnosticError:
    return DiagnosticError([Diagnostic(line, column, message)])
