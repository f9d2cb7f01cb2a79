"""``repro lint``: run the reprolint rule set from the command line.

Usage::

    repro lint                          # lint src/ from cwd
    repro lint src/repro benchmarks     # explicit paths
    repro lint --rules RL001,RL005 src/repro
    repro lint --list-rules

Exit codes: ``0`` — no findings, ``1`` — at least one finding, ``2`` —
usage error (bad path, unknown rule).  A deliberate exception is silenced
at its line with ``# reprolint: disable=RULE`` and a reason in the comment
above it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.engine import LintResult, run_lint
from repro.analysis.rules import RULE_CLASSES, rules_by_id

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Statically check the serving stack's contracts (reprolint).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: ./src, falling back to .)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    return parser


def _render_text(result: LintResult) -> str:
    """Compiler-style ``path:line:col`` lines plus a summary."""
    lines = []
    by_rule: dict[str, int] = {}
    for finding in result.findings:
        lines.append(
            f"{finding.location()}: {finding.rule} [{finding.severity}] "
            f"{finding.message}"
        )
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    lines.append(
        f"{len(result.findings)} finding(s) "
        f"across {len(result.context.modules)} file(s)"
    )
    if by_rule:
        lines.append(
            "by rule: "
            + ", ".join(f"{rule}={n}" for rule, n in sorted(by_rule.items()))
        )
    return "\n".join(lines)


def _list_rules() -> str:
    lines = ["rule    severity  title"]
    for cls in RULE_CLASSES:
        lines.append(f"{cls.rule_id}   {cls.severity:<8}  {cls.title}")
    return "\n".join(lines)


def _default_paths() -> list[str]:
    src = Path("src")
    return [str(src)] if src.is_dir() else ["."]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Tolerate being handed the full ``repro``-level argv (["lint", ...]).
    if argv and argv[0] == "lint":
        argv = argv[1:]
    args = _parser().parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    try:
        rules = (
            rules_by_id(part for part in args.rules.split(",") if part.strip())
            if args.rules
            else None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_lint(args.paths or _default_paths(), rules=rules)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(_render_text(result))
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())
