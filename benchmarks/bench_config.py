"""Shared configuration for the benchmark harness.

Every benchmark module regenerates one result file into
``benchmarks/results/`` through :func:`repro.experiments.cli.run_experiment`,
the writer behind ``repro all --output DIR``, and keeps only its shape
assertions; the committed copies are the reproduced numbers ROADMAP.md
quotes.  The paper's tables and figures are the CLI's ``EXPERIMENTS``; each
ablation bench passes its own :class:`~repro.experiments.cli.Experiment`.  The
profile is one of the CLI's ``--profile`` choices, selected by the
``REPRO_BENCH_PROFILE`` environment variable:

* ``quick``   — tiny runs for CI smoke checks,
* ``default`` — the standard profile (a few minutes total on a laptop CPU),
* ``paper``   — closest to the paper's setup that is practical on CPU.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.experiments.cli import _PROFILES, Experiment, run_experiment

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def regenerate(benchmark, experiment: Experiment) -> list[dict[str, object]]:
    """Time one run of ``experiment`` at the ``REPRO_BENCH_PROFILE`` profile,
    write its file under ``benchmarks/results/`` and return its rows."""
    profile = os.environ.get("REPRO_BENCH_PROFILE", "default").lower()
    if profile not in _PROFILES:
        raise KeyError(
            f"unknown REPRO_BENCH_PROFILE {profile!r}; choose from {sorted(_PROFILES)}"
        )
    config = _PROFILES[profile]()
    rows, _ = benchmark.pedantic(
        lambda: run_experiment(experiment, config, RESULTS_DIR), rounds=1, iterations=1
    )
    return rows
