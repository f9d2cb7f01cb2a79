"""Ablation bench: Best-F thresholding vs. label-free quantile thresholding.

The paper uses Best-F (which needs test labels to pick the threshold).  This
bench quantifies how much F1 is lost when CND-IDS instead uses the fully
label-free quantile rule on the clean-normal score distribution — the setting
a real deployment would face.
"""

from __future__ import annotations

from bench_config import regenerate

from repro.core.thresholding import BestFThresholding, QuantileThresholding
from repro.experiments.cli import Experiment
from repro.experiments.protocol import run_continual_method
from repro.experiments.reporting import format_table
from repro.experiments.runner import build_continual_method, get_scenario

STRATEGIES = {
    "best_f": BestFThresholding(),
    "quantile_0.95": QuantileThresholding(quantile=0.95),
    "quantile_0.99": QuantileThresholding(quantile=0.99),
}


def _run_sweep(config):
    dataset_name = config.datasets[0]
    scenario = get_scenario(config, dataset_name)
    rows = []
    for name, strategy in STRATEGIES.items():
        method = build_continual_method("CND-IDS", scenario.n_features, config)
        method.thresholding = strategy
        result = run_continual_method(method, scenario, compute_prauc=False)
        rows.append(
            {
                "dataset": dataset_name,
                "thresholding": name,
                "avg_f1": result.avg_f1,
                "fwd_transfer": result.fwd_transfer,
            }
        )
    return rows


ABLATION = Experiment(
    "ablation_threshold",
    _run_sweep,
    lambda rows: format_table(rows, title="Ablation: thresholding strategy (CND-IDS)"),
)


def test_bench_ablation_threshold(benchmark):
    rows = regenerate(benchmark, ABLATION)
    by_name = {row["thresholding"]: row for row in rows}
    # Best-F is an upper bound on the label-free strategies by construction.
    assert by_name["best_f"]["avg_f1"] >= by_name["quantile_0.95"]["avg_f1"] - 1e-9
