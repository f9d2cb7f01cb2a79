"""Rule base class and the AST helpers every rule shares.

A rule is a small object with an id, a severity, and two hooks:
``check_module`` (called once per parsed file) and ``finalize`` (called once
after every file has been seen, for whole-package contracts).  Rules scope
themselves by *path shape* — ``repro/serve/`` and friends — rather than by
import location, so fixture tests can lint an in-memory module under any
pretend path and the CLI behaves identically on a copied tree.

Writing a new rule
------------------

1. Create ``rules/rlNNN_<slug>.py``.  The module docstring *is* the
   contract's specification: say what invariant the rule protects, why the
   serving stack relies on it, and list the documented false negatives.
2. Subclass :class:`Rule`; set ``rule_id`` (``"RLNNN"``), ``title``,
   ``severity`` (``"error"`` or ``"warning"``) and ``false_negatives``.
3. Implement ``check_module`` for per-file checks, or ``finalize`` for
   whole-tree contracts.  ``finalize`` rules may consult
   ``context.project`` — the resolved symbol table / call graph built by
   :mod:`repro.analysis.project`.  A finalize rule that keys on specific
   home modules must degrade gracefully when only a subtree is scanned:
   skip the check when the other side of the contract is absent, so
   ``repro lint one_file.py`` never emits spurious whole-tree findings.
4. Produce findings via :meth:`Rule.finding` (anchored on a module + node,
   capturing context qualname and line text for baseline identity).
5. Register the class in ``rules/__init__.py``'s ``RULE_CLASSES`` and add a
   ``tests/analysis/fixtures/rlNNN_bad.py`` / ``rlNNN_good.py`` twin plus a
   ``CASES`` entry in ``tests/analysis/test_rules_fixtures.py`` with exact
   rule-id + line assertions.  The good twin must stay clean under the
   *full* rule set, not just the new rule.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import LintContext, ParsedModule
from repro.analysis.findings import Finding

__all__ = [
    "Rule",
    "ScopedVisitor",
    "dotted_name",
    "has_consecutive_parts",
    "in_repro_package",
    "in_serve_package",
]


def has_consecutive_parts(module: ParsedModule, *wanted: str) -> bool:
    """True when ``wanted`` appears as consecutive path components."""
    parts = module.parts
    n = len(wanted)
    return any(parts[i : i + n] == wanted for i in range(len(parts) - n + 1))


def in_repro_package(module: ParsedModule) -> bool:
    return "repro" in module.parts


def in_serve_package(module: ParsedModule) -> bool:
    return has_consecutive_parts(module, "repro", "serve")


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ScopedVisitor(ast.NodeVisitor):
    """NodeVisitor that tracks the enclosing ``Class.method`` qualname."""

    def __init__(self) -> None:
        self._scope: list[str] = []

    @property
    def qualname(self) -> str:
        return ".".join(self._scope) or "<module>"

    def _visit_scope(self, node: ast.AST) -> None:
        self._scope.append(node.name)  # type: ignore[attr-defined]
        self.generic_visit(node)
        self._scope.pop()

    visit_ClassDef = _visit_scope
    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope


class Rule:
    """Base class; subclasses set the id/title/severity and the hooks."""

    rule_id: str = "RL000"
    title: str = ""
    severity: str = "error"
    #: One-paragraph statement of what the rule intentionally does NOT catch.
    false_negatives: str = ""

    def check_module(
        self, module: ParsedModule, context: LintContext
    ) -> Iterable[Finding]:
        return ()

    def finalize(self, context: LintContext) -> Iterable[Finding]:
        return ()

    def finding(
        self,
        module: ParsedModule,
        node: ast.AST | None,
        message: str,
        *,
        context: str = "<module>",
        line: int | None = None,
        col: int | None = None,
        severity: str | None = None,
    ) -> Finding:
        lineno = line if line is not None else getattr(node, "lineno", 1)
        column = col if col is not None else getattr(node, "col_offset", 0)
        return Finding(
            rule=self.rule_id,
            severity=severity if severity is not None else self.severity,
            path=module.display_path,
            line=lineno,
            col=column,
            message=message,
            context=context,
            line_text=module.line_text(lineno),
        )
