"""Finding: one linter diagnostic, with enough identity to survive line drift.

A finding is identified for baseline purposes by ``(rule, path, context,
line_text)`` rather than by line number: grandfathered findings keep matching
after unrelated edits shift the file, but stop matching the moment the
offending line itself changes — at which point the author must re-justify or
fix it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    #: The stripped source line the finding points at (baseline identity).
    line_text: str = ""
    #: True when a committed baseline entry grandfathers this finding.
    baselined: bool = field(default=False, compare=False)

    def key(self) -> tuple[str, str, str, str]:
        """Line-drift-tolerant identity used for baseline matching."""
        return (self.rule, self.path, self.context, self.line_text)

    def as_baselined(self) -> "Finding":
        return replace(self, baselined=True)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"
