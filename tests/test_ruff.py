"""``ruff check`` (pyflakes + isort, ``[tool.ruff]`` in pyproject.toml)
passes on the source, the tests and the benchmarks, when ruff is installed."""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_check_passes():
    proc = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
