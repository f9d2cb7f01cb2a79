"""Finding: one linter diagnostic."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    #: Enclosing ``Class.method`` qualname, or ``"<module>"``.
    context: str = "<module>"

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"
