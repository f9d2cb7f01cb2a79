"""Pytest configuration for the benchmark harness."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make the sibling bench_config module importable when pytest is invoked from
# the repository root (benchmarks/ is not a package).
_BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(_BENCH_DIR))


def pytest_collection_modifyitems(config, items):
    """Mark everything under benchmarks/ as ``bench``.

    The default addopts (``-m 'not bench'``) then keep the tier-1 run fast;
    ``pytest benchmarks -m bench`` runs the benchmark suite.  Tests that
    explicitly carry the ``tier1`` marker are exempt: they are cheap tooling
    guards (compile checks) that must run in the default tier-1 pass so a
    broken bench module cannot land unnoticed.
    """
    for item in items:
        if str(item.fspath).startswith(str(_BENCH_DIR)) and not item.get_closest_marker(
            "tier1"
        ):
            item.add_marker(pytest.mark.bench)
