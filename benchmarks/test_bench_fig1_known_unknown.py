"""Benchmark: regenerate Fig. 1 (supervised ML-IDS on known vs. unknown attacks).

The paper's shape to reproduce: every supervised model scores high on attack
families it was trained on and drops sharply on families it has never seen.
"""

from __future__ import annotations

import numpy as np
from bench_config import regenerate

from repro.experiments.cli import EXPERIMENTS


def test_bench_fig1_known_unknown(benchmark):
    rows = regenerate(benchmark, EXPERIMENTS["fig1"])

    known = np.array([row["known_accuracy"] for row in rows])
    unknown = np.array([row["unknown_accuracy"] for row in rows])
    # Shape check: on average the supervised models lose accuracy on unknown
    # attacks (the motivating observation of the paper).
    assert known.mean() > unknown.mean()
    assert known.mean() > 75.0
