"""Benchmark: regenerate Table III (ablation of the CND loss components).

Paper shape: removing L_CS lowers AVG; removing L_R and L_CL produces clearly
negative backward transfer (catastrophic forgetting) even if AVG looks fine.
"""

from __future__ import annotations

from bench_config import regenerate

from repro.experiments.cli import EXPERIMENTS


def test_bench_table3_ablation(benchmark):
    rows = regenerate(benchmark, EXPERIMENTS["table3"])

    by_strategy = {row["strategy"]: row for row in rows}
    full = by_strategy["CND-IDS"]
    stripped = by_strategy["CND-IDS (w/o LR and LCL)"]
    # Removing the continual-learning machinery must not improve retention.
    assert full["bwd_transfer_pct"] >= stripped["bwd_transfer_pct"] - 2.0
    assert 0.0 <= full["avg_f1_pct"] <= 100.0
