"""Tier-1 gate: the shipped tree stays clean under the full reprolint rule set.

This is the enforcement half of ``repro.analysis``: any new violation of the
serving-stack contracts (RL001–RL012) in ``src/`` or ``benchmarks/`` fails the
default test pass.  Deliberate, documented exceptions live in the committed
baseline at the repo root; the baseline itself is kept small and justified.
The full-tree lint runs once per session (``repo_lint``) and every check
below reads that one result.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Baseline, run_lint
from repro.analysis.baseline import DEFAULT_BASELINE_NAME

pytestmark = pytest.mark.tier1

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / DEFAULT_BASELINE_NAME
LINT_PATHS = [REPO_ROOT / "src", REPO_ROOT / "benchmarks"]
README = REPO_ROOT / "README.md"
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def repo_lint():
    baseline = Baseline.load(BASELINE_PATH) if BASELINE_PATH.exists() else None
    docs = [README] if README.exists() else []
    return run_lint(LINT_PATHS, docs=docs, baseline=baseline)


def test_src_tree_has_no_new_findings(repo_lint):
    new = repo_lint.new
    detail = "\n".join(f"{f.location()} {f.rule} {f.message}" for f in new)
    assert not new, f"new reprolint findings:\n{detail}"
    assert repo_lint.exit_code == 0


def test_lint_actually_scanned_the_tree(repo_lint):
    """Guard against a silently-empty scan reading as a clean tree."""
    assert len(repo_lint.context.modules) > 50
    assert not repo_lint.context.parse_errors


def test_baseline_is_small_and_documented():
    baseline = Baseline.load(BASELINE_PATH)
    assert len(baseline.entries) <= 5
    assert baseline.undocumented() == []


def test_baseline_entries_still_match_real_findings(repo_lint):
    """A baseline entry whose finding was fixed should be deleted, not kept."""
    baseline = Baseline.load(BASELINE_PATH)
    for entry in baseline.entries:
        assert any(
            entry.matches(finding) for finding in repo_lint.baselined
        ), f"stale baseline entry: {entry.rule} {entry.path} ({entry.context})"


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
