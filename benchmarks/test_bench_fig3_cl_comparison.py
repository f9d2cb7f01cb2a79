"""Benchmark: regenerate Fig. 3 (AVG / FwdTrans / BwdTrans of ADCN, LwF, CND-IDS).

Paper shape: CND-IDS has the best AVG and FwdTrans on every dataset.
"""

from __future__ import annotations

import numpy as np
from bench_config import regenerate

from repro.experiments.cli import EXPERIMENTS


def test_bench_fig3_cl_comparison(benchmark):
    rows = regenerate(benchmark, EXPERIMENTS["fig3"])

    by_method = {
        method: [row for row in rows if row["method"] == method]
        for method in ("ADCN", "LwF", "CND-IDS")
    }
    cnd_avg = np.mean([row["avg_f1"] for row in by_method["CND-IDS"]])
    for baseline in ("ADCN", "LwF"):
        baseline_avg = np.mean([row["avg_f1"] for row in by_method[baseline]])
        baseline_fwd = np.mean([row["fwd_transfer"] for row in by_method[baseline]])
        cnd_fwd = np.mean([row["fwd_transfer"] for row in by_method["CND-IDS"]])
        # Averaged over datasets CND-IDS must dominate both UCL baselines.
        assert cnd_avg > baseline_avg
        assert cnd_fwd > baseline_fwd
