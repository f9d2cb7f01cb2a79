"""Ablation bench: sensitivity of CND-IDS to the PCA explained-variance ratio.

The paper fixes the explained variance at 95% (following incDFM).  This bench
sweeps the ratio to document how sensitive the result is to that choice.
"""

from __future__ import annotations

from bench_config import regenerate

from repro.experiments.cli import Experiment
from repro.experiments.protocol import run_continual_method
from repro.experiments.reporting import format_table
from repro.experiments.runner import build_continual_method, get_scenario

VARIANCE_LEVELS = (0.90, 0.95, 0.99)


def _run_sweep(config):
    dataset_name = config.datasets[0]
    scenario = get_scenario(config, dataset_name)
    rows = []
    for variance in VARIANCE_LEVELS:
        method = build_continual_method("CND-IDS", scenario.n_features, config)
        method.pca_variance = variance
        result = run_continual_method(method, scenario, compute_prauc=True)
        rows.append(
            {
                "dataset": dataset_name,
                "pca_variance": variance,
                "avg_f1": result.avg_f1,
                "fwd_transfer": result.fwd_transfer,
                "avg_prauc": result.avg_prauc,
            }
        )
    return rows


ABLATION = Experiment(
    "ablation_pca_variance",
    _run_sweep,
    lambda rows: format_table(rows, title="Ablation: PCA explained-variance ratio (CND-IDS)"),
)


def test_bench_ablation_pca_variance(benchmark):
    rows = regenerate(benchmark, ABLATION)
    assert len(rows) == len(VARIANCE_LEVELS)
    assert all(0.0 <= row["avg_f1"] <= 1.0 for row in rows)
