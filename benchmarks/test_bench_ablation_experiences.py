"""Ablation bench: effect of the number of experiences ``m`` on CND-IDS.

The paper fixes m per dataset (5, or 4 for WUSTL-IIoT).  This bench sweeps m
on one dataset to show how stream granularity affects the CL metrics.
"""

from __future__ import annotations

import dataclasses

from bench_config import regenerate

from repro.experiments.cli import Experiment
from repro.experiments.protocol import run_continual_method
from repro.experiments.reporting import format_table
from repro.experiments.runner import build_continual_method, build_scenario

EXPERIENCE_COUNTS = (2, 3, 5)


def _run_sweep(config):
    dataset_name = "xiiotid" if "xiiotid" in config.datasets else config.datasets[-1]
    rows = []
    for n_experiences in EXPERIENCE_COUNTS:
        swept = dataclasses.replace(config, n_experiences_override=n_experiences)
        scenario = build_scenario(swept, dataset_name)
        method = build_continual_method("CND-IDS", scenario.n_features, swept)
        result = run_continual_method(method, scenario, compute_prauc=False)
        rows.append(
            {
                "dataset": dataset_name,
                "n_experiences": n_experiences,
                "avg_f1": result.avg_f1,
                "fwd_transfer": result.fwd_transfer,
                "bwd_transfer": result.bwd_transfer,
            }
        )
    return rows


ABLATION = Experiment(
    "ablation_experiences",
    _run_sweep,
    lambda rows: format_table(rows, title="Ablation: number of experiences m (CND-IDS)"),
)


def test_bench_ablation_experiences(benchmark):
    rows = regenerate(benchmark, ABLATION)
    assert [row["n_experiences"] for row in rows] == list(EXPERIENCE_COUNTS)
