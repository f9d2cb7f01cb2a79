"""Tier-1 gate: the shipped tree stays clean under the full reprolint rule set.

This is the enforcement half of ``repro.analysis``: any new violation of the
serving-stack contracts (see ``repro lint --list-rules``) in ``src/`` or ``benchmarks/`` fails the
default test pass.  Deliberate, documented exceptions are inline
``# reprolint: disable=RULE`` comments, each with its reason in the comment
line above; the suppressions themselves are kept few, explicit and live.
The full-tree lint runs once per session (``repo_lint``) and every check
below reads that one result.
"""

from __future__ import annotations

import dataclasses
import io
import re
import shutil
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from repro.analysis import LintContext, lint_parsed, run_lint
from repro.analysis.engine import _SUPPRESS_RE
from repro.analysis.rules import rules_by_id

pytestmark = pytest.mark.tier1

REPO_ROOT = Path(__file__).resolve().parents[2]
LINT_PATHS = [REPO_ROOT / "src", REPO_ROOT / "benchmarks"]
FIXTURES = Path(__file__).parent / "fixtures"
MAX_SUPPRESSIONS = 5


@pytest.fixture(scope="session")
def repo_lint():
    return run_lint(LINT_PATHS)


def _suppression_comments():
    """``(path, line, rule ids or None, line above)`` per suppression comment.

    Comments are read with :mod:`tokenize`, so the ``# reprolint: disable``
    examples inside docstrings are not counted.
    """
    found = []
    for root in LINT_PATHS:
        for path in sorted(root.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            lines = source.splitlines()
            for token in tokenize.generate_tokens(io.StringIO(source).readline):
                if token.type != tokenize.COMMENT:
                    continue
                match = _SUPPRESS_RE.search(token.string)
                if match is None:
                    continue
                line = token.start[0]
                spec = match.group(1)
                rules = None if spec is None else frozenset(
                    part.strip() for part in spec.split(",") if part.strip()
                )
                above = lines[line - 2].strip() if line > 1 else ""
                found.append((path, line, rules, above))
    return found


def test_src_tree_has_no_new_findings(repo_lint):
    new = repo_lint.findings
    detail = "\n".join(f"{f.location()} {f.rule} {f.message}" for f in new)
    assert not new, f"new reprolint findings:\n{detail}"
    assert repo_lint.exit_code == 0


def test_lint_actually_scanned_the_tree(repo_lint):
    """Guard against a silently-empty scan reading as a clean tree."""
    assert len(repo_lint.context.modules) > 50
    assert not repo_lint.context.parse_errors


def test_inline_suppressions_are_few_explicit_and_documented():
    suppressions = _suppression_comments()
    assert suppressions, "the tokenizer scan found no suppression comment"
    assert len(suppressions) <= MAX_SUPPRESSIONS
    for path, line, rules, above in suppressions:
        where = f"{path.relative_to(REPO_ROOT)}:{line}"
        assert rules, f"{where}: a bare `disable` must name its rule ids"
        assert all(re.fullmatch(r"RL\d{3}", rule) for rule in rules), where
        assert above.startswith("#") and not _SUPPRESS_RE.search(above), (
            f"{where}: the comment line directly above must give the reason"
        )
        assert len(above.lstrip("# ").split()) >= 3, f"{where}: reason too short"


def test_the_engine_registers_exactly_the_suppression_comments(repo_lint):
    """Docstrings quoting ``# reprolint: disable`` register no suppression."""
    registered = {
        (module.path.resolve(), line)
        for module in repo_lint.context.modules
        for line in module.suppressions
    }
    commented = {(path.resolve(), line) for path, line, _, _ in _suppression_comments()}
    assert registered == commented


def test_inline_suppressions_still_silence_real_findings(repo_lint):
    """A suppression whose finding was fixed should be deleted, not kept."""
    unsuppressed = LintContext(
        modules=[
            dataclasses.replace(module, suppressions={})
            for module in repo_lint.context.modules
        ]
    )
    display = {m.path.resolve(): m.display_path for m in unsuppressed.modules}
    suppressions = _suppression_comments()
    rule_ids = sorted(set().union(*(rules or () for _, _, rules, _ in suppressions)))
    found = {
        (f.path, f.line, f.rule)
        for f in lint_parsed(unsuppressed, rules=rules_by_id(rule_ids)).findings
    }
    for path, line, rules, _ in suppressions:
        for rule in rules or ():
            assert (display[path.resolve()], line, rule) in found, (
                f"stale suppression: {rule} at {path.relative_to(REPO_ROOT)}:{line}"
            )


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_check_passes():
    proc = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_lint_module_runs_as_script(tmp_path):
    """The ``-m`` entry point exits 0 on a clean tree (a planted good twin)."""
    serve_dir = tmp_path / "src" / "repro" / "serve"
    serve_dir.mkdir(parents=True)
    shutil.copy(FIXTURES / "rl003_good.py", serve_dir / "fixture_storage.py")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.cli", "src"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
