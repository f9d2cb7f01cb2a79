"""Benchmark: regenerate Fig. 5 (threshold-free PR-AUC of DIF, PCA, CND-IDS).

Paper shape: CND-IDS has the best PR-AUC, showing the advantage is not an
artefact of the Best-F thresholding.
"""

from __future__ import annotations

import numpy as np
from bench_config import regenerate

from repro.experiments.cli import EXPERIMENTS


def test_bench_fig5_prauc(benchmark):
    rows = regenerate(benchmark, EXPERIMENTS["fig5"])

    def mean_prauc(method: str) -> float:
        return float(np.mean([row["mean_prauc"] for row in rows if row["method"] == method]))

    assert mean_prauc("CND-IDS") > mean_prauc("DIF")
    assert mean_prauc("CND-IDS") > 0.95 * mean_prauc("PCA")
