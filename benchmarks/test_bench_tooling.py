"""Tier-1 tooling guards for the benchmark harness (no timing involved).

These run in the default test pass (the ``tier1`` marker exempts them from
the automatic ``bench`` marking — see ``conftest.py``): a syntax error in
``src/``, in a bench module or in the ``perfbench/`` harness must fail the
build *before* anyone tries to measure anything.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.tier1


def _compileall(directory: str, cache_dir: Path) -> None:
    # Byte-code goes to a scratch prefix so the check leaves no __pycache__
    # behind in the checked tree.
    result = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(REPO_ROOT / directory)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPYCACHEPREFIX": str(cache_dir)},
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_compileall_src(tmp_path):
    """Every module under src/ must at least compile (catches syntax errors)."""
    _compileall("src", tmp_path)


def test_compileall_benchmarks(tmp_path):
    """The bench modules must compile — they are not imported by tier-1
    otherwise, so a broken bench could land silently."""
    _compileall("benchmarks", tmp_path)


def test_compileall_perfbench(tmp_path):
    """The repository benchmark harness must compile — nothing in tier-1
    imports ``perfbench/``, so a syntax error there would land unseen."""
    _compileall("perfbench", tmp_path)
