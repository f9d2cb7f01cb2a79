"""reprolint engine: collect sources, parse once, run every rule, finalize.

The engine owns everything rule-agnostic:

- file collection (``.py`` files under the given paths, deduplicated,
  deterministic order);
- one ``ast.parse`` per file shared by all rules;
- inline suppressions — a trailing ``# reprolint: disable=RL001`` (or a bare
  ``# reprolint: disable`` for all rules) drops findings anchored on that
  line;
- baseline application — committed grandfathered findings are *marked*
  (``Finding.baselined``), never hidden, so the text output still lists
  them;
- cross-module state: rules see each module via :meth:`Rule.check_module`
  and then get one :meth:`Rule.finalize` call with the full
  :class:`LintContext`, which is how whole-package contracts (event
  producers against their consumers, nondeterminism reaching the serve
  path through calls) are checked.

Rules never read files themselves; fixtures exercise them by building a
:class:`ParsedModule` from source with :func:`parse_module` under any
pretend path, which is also how the test suite lints "known-bad" snippets
as if they lived in ``src/repro/serve``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.findings import Finding

__all__ = [
    "LintContext",
    "LintResult",
    "ParsedModule",
    "lint_parsed",
    "parse_module",
    "run_lint",
]

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable(?:=([A-Za-z0-9_,\s]+))?")


@dataclass
class ParsedModule:
    """One parsed source file plus the path facts rules scope on."""

    path: Path
    #: Path as reported in findings (posix, relative to the lint cwd when
    #: possible) — also what baseline entries match against.
    display_path: str
    tree: ast.Module
    lines: list[str]
    #: line number -> suppressed rule ids (``None`` means all rules).
    suppressions: dict[int, frozenset | None]

    @property
    def parts(self) -> tuple[str, ...]:
        return Path(self.display_path).parts

    @property
    def dotted(self) -> str | None:
        """Dotted module name, anchored at the last ``repro`` path part."""
        parts = list(self.parts)
        if "repro" not in parts:
            return None
        parts = parts[len(parts) - 1 - parts[::-1].index("repro") :]
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        elif parts[-1].endswith(".py"):
            parts[-1] = parts[-1][: -len(".py")]
        return ".".join(parts)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_suppressed(self, lineno: int, rule_id: str) -> bool:
        if lineno not in self.suppressions:
            return False
        rules = self.suppressions[lineno]
        return rules is None or rule_id in rules


def _scan_suppressions(lines: Sequence[str]) -> dict[int, frozenset | None]:
    suppressions: dict[int, frozenset | None] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        spec = match.group(1)
        if spec is None:
            suppressions[lineno] = None
        else:
            suppressions[lineno] = frozenset(
                part.strip().upper() for part in spec.split(",") if part.strip()
            )
    return suppressions


def parse_module(
    source: str, display_path: str, *, path: Path | None = None
) -> ParsedModule:
    """Parse ``source`` as if it lived at ``display_path`` (posix-style)."""
    tree = ast.parse(source, filename=display_path)
    lines = source.splitlines()
    return ParsedModule(
        path=path if path is not None else Path(display_path),
        display_path=Path(display_path).as_posix(),
        tree=tree,
        lines=lines,
        suppressions=_scan_suppressions(lines),
    )


@dataclass
class LintContext:
    """Everything a rule may consult across modules."""

    modules: list[ParsedModule] = field(default_factory=list)
    #: Files that failed to parse: (display_path, error message).
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    #: The active Baseline (if any) — cross-module rules consult it to avoid
    #: cascading findings off grandfathered seeds (see RL012).
    baseline: object | None = None
    #: Whole-tree symbol table / call graph (repro.analysis.project),
    #: built once per lint run before rules execute.
    project: object | None = None

    @property
    def scanned_paths(self) -> list[str]:
        """Display paths of every file this run read."""
        return [m.display_path for m in self.modules] + [
            display for display, _ in self.parse_errors
        ]


@dataclass
class LintResult:
    """Sorted findings plus the context they were produced from."""

    findings: list[Finding]
    context: LintContext

    @property
    def new(self) -> list[Finding]:
        return [f for f in self.findings if not f.baselined]

    @property
    def baselined(self) -> list[Finding]:
        return [f for f in self.findings if f.baselined]

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0


def _collect_files(paths: Iterable[str | Path]) -> list[Path]:
    seen: set[Path] = set()
    ordered: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                ordered.append(candidate)
    return ordered


def _display_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(
    paths: Sequence[str | Path],
    *,
    rules: Sequence | None = None,
    baseline=None,
) -> LintResult:
    """Run ``rules`` (default: the full registry) over ``paths``.

    ``baseline`` is a :class:`repro.analysis.baseline.Baseline`; matched
    findings are marked, not removed.
    """
    context = LintContext()
    for path in _collect_files(paths):
        display = _display_path(path)
        try:
            context.modules.append(
                parse_module(path.read_text(encoding="utf-8"), display, path=path)
            )
        except SyntaxError as exc:
            context.parse_errors.append((display, str(exc)))
    return lint_parsed(context, rules=rules, baseline=baseline)


def lint_parsed(
    context: LintContext,
    *,
    rules: Sequence | None = None,
    baseline=None,
) -> LintResult:
    """Run ``rules`` over an already-built :class:`LintContext`.

    This is the back half of :func:`run_lint`; fixture tests use it to lint
    in-memory modules (built with :func:`parse_module` under a pretend path)
    through the identical suppression/baseline pipeline.
    """
    if rules is None:
        from repro.analysis.rules import default_rules

        rules = default_rules()

    if context.baseline is None:
        context.baseline = baseline
    if context.project is None:
        from repro.analysis.project import build_project

        context.project = build_project(context)

    def _suppressed(finding: Finding) -> bool:
        module = next(
            (m for m in context.modules if m.display_path == finding.path), None
        )
        return module is not None and module.is_suppressed(
            finding.line, finding.rule
        )

    kept = [
        Finding(
            rule="RL000",
            severity="error",
            path=display,
            line=1,
            col=0,
            message=f"file does not parse: {message}",
        )
        for display, message in context.parse_errors
    ]
    for rule in rules:
        for module in context.modules:
            kept.extend(
                finding
                for finding in rule.check_module(module, context)
                if not _suppressed(finding)
            )
        kept.extend(
            finding for finding in rule.finalize(context) if not _suppressed(finding)
        )
    if baseline is not None:
        kept = [
            finding.as_baselined() if baseline.matches(finding) else finding
            for finding in kept
        ]
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return LintResult(findings=kept, context=context)
