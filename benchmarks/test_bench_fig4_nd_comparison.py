"""Benchmark: regenerate Fig. 4 (mean F1 of LOF, OC-SVM, DIF, PCA vs. CND-IDS).

Paper shape: CND-IDS outperforms every static novelty detector on every
dataset; PCA (and DIF in the paper) are the strongest static baselines.
"""

from __future__ import annotations

import numpy as np
from bench_config import regenerate

from repro.experiments.cli import EXPERIMENTS


def test_bench_fig4_nd_comparison(benchmark):
    rows = regenerate(benchmark, EXPERIMENTS["fig4"])

    def mean_f1(method: str) -> float:
        return float(np.mean([row["mean_f1"] for row in rows if row["method"] == method]))

    cnd = mean_f1("CND-IDS")
    static_methods = sorted({row["method"] for row in rows} - {"CND-IDS", "PCA"})
    # Averaged over datasets, CND-IDS beats every static detector.  Raw-input
    # PCA is the strongest baseline (in the paper CND-IDS is only 1.08x
    # better), so that comparison allows a small tolerance.
    for method in static_methods:
        assert cnd > mean_f1(method), f"CND-IDS should beat {method} on average"
    if "PCA" in {row["method"] for row in rows}:
        assert cnd > 0.95 * mean_f1("PCA")
