"""Shared configuration and result recording for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper via the
runners in :mod:`repro.experiments`.  The scale is controlled by the
``REPRO_BENCH_PROFILE`` environment variable:

* ``quick``   — tiny runs for CI smoke checks,
* ``default`` — the standard profile (a few minutes total on a laptop CPU),
* ``paper``   — closest to the paper's setup that is practical on CPU.

Formatted result tables are printed and also written to
``benchmarks/results/<name>.txt`` so they can be inspected after the run;
the committed copies are the reproduced numbers ROADMAP.md quotes.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.experiments import ExperimentConfig

RESULTS_DIR = Path(__file__).resolve().parent / "results"

_PROFILES = {
    "quick": ExperimentConfig(
        datasets=("wustl_iiot", "unsw_nb15"),
        scale=0.002,
        epochs=3,
        n_experiences_override=2,
    ),
    "default": ExperimentConfig(),
    "paper": ExperimentConfig.paper(),
}


def bench_config() -> ExperimentConfig:
    """The experiment configuration selected by ``REPRO_BENCH_PROFILE``."""
    profile = os.environ.get("REPRO_BENCH_PROFILE", "default").lower()
    if profile not in _PROFILES:
        raise KeyError(
            f"unknown REPRO_BENCH_PROFILE {profile!r}; choose from {sorted(_PROFILES)}"
        )
    return _PROFILES[profile]


def fig1_config() -> ExperimentConfig:
    """Fig. 1 trains per-dataset supervised tree ensembles, which dominate the
    benchmark runtime; it therefore runs at a reduced scale."""
    base = bench_config()
    return ExperimentConfig(
        datasets=base.datasets,
        scale=min(base.scale, 0.002),
        seed=base.seed,
        epochs=base.epochs,
    )


def record(name: str, text: str) -> None:
    """Print a formatted result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
