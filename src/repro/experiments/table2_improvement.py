"""Table II — improvement of CND-IDS over the UCL baselines.

The improvement is the ratio of CND-IDS's metric to the baseline's metric
(AVG and FwdTrans only; the paper excludes BwdTrans because a ratio is not
meaningful for a metric that can be negative).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig3_cl_comparison import run_fig3
from repro.experiments.reporting import format_table

__all__ = ["run_table2", "format_table2", "improvement_ratio"]

#: Paper-reported improvement factors (Table II) for the paper-vs-measured record.
PAPER_TABLE2 = {
    ("ADCN", "xiiotid"): {"avg": 2.02, "fwd": 5.00},
    ("ADCN", "wustl_iiot"): {"avg": 4.50, "fwd": 6.47},
    ("ADCN", "cicids2017"): {"avg": 1.37, "fwd": 1.73},
    ("ADCN", "unsw_nb15"): {"avg": 1.29, "fwd": 1.44},
    ("LwF", "xiiotid"): {"avg": 1.46, "fwd": 1.35},
    ("LwF", "wustl_iiot"): {"avg": 6.11, "fwd": 3.47},
    ("LwF", "cicids2017"): {"avg": 1.93, "fwd": 2.64},
    ("LwF", "unsw_nb15"): {"avg": 1.11, "fwd": 1.02},
}


def improvement_ratio(cnd_value: float, baseline_value: float) -> float:
    """Proportional improvement of CND-IDS over a baseline (``cnd / baseline``).

    Returns ``inf`` when the baseline score is zero and CND-IDS is positive,
    and ``nan`` when both are zero.
    """
    if baseline_value > 0:
        return float(cnd_value / baseline_value)
    if cnd_value > 0:
        return float("inf")
    return float("nan")


def run_table2(
    config: ExperimentConfig | None = None,
    *,
    fig3_rows: list[dict[str, object]] | None = None,
) -> list[dict[str, object]]:
    """Compute CND-IDS improvement factors over ADCN and LwF per dataset."""
    config = config or ExperimentConfig()
    if fig3_rows is None:
        fig3_rows = run_fig3(config)
    by_key = {(row["method"], row["dataset"]): row for row in fig3_rows}

    rows: list[dict[str, object]] = []
    for baseline in ("ADCN", "LwF"):
        for dataset_name in config.datasets:
            cnd = by_key.get(("CND-IDS", dataset_name))
            base = by_key.get((baseline, dataset_name))
            if cnd is None or base is None:
                continue
            paper = PAPER_TABLE2.get((baseline, dataset_name), {})
            rows.append(
                {
                    "baseline": baseline,
                    "dataset": dataset_name,
                    "avg_improvement": improvement_ratio(cnd["avg_f1"], base["avg_f1"]),
                    "fwd_improvement": improvement_ratio(
                        cnd["fwd_transfer"], base["fwd_transfer"]
                    ),
                    "paper_avg_improvement": paper.get("avg", float("nan")),
                    "paper_fwd_improvement": paper.get("fwd", float("nan")),
                }
            )
    return rows


def mean_improvements(rows: list[dict[str, object]]) -> dict[str, float]:
    """Average improvement factors per baseline across datasets (paper text numbers)."""
    summary: dict[str, float] = {}
    for baseline in ("ADCN", "LwF"):
        subset = [r for r in rows if r["baseline"] == baseline]
        if not subset:
            continue
        finite_avg = [r["avg_improvement"] for r in subset if np.isfinite(r["avg_improvement"])]
        finite_fwd = [r["fwd_improvement"] for r in subset if np.isfinite(r["fwd_improvement"])]
        summary[f"{baseline}_avg"] = float(np.mean(finite_avg)) if finite_avg else float("nan")
        summary[f"{baseline}_fwd"] = float(np.mean(finite_fwd)) if finite_fwd else float("nan")
    return summary


def format_table2(rows: list[dict[str, object]]) -> str:
    """Render the Table II reproduction and its per-baseline means as text."""
    table = format_table(
        rows,
        columns=[
            "baseline",
            "dataset",
            "avg_improvement",
            "fwd_improvement",
            "paper_avg_improvement",
            "paper_fwd_improvement",
        ],
        title="Table II: CND-IDS improvement over UCL baselines (x factors)",
        precision=2,
    )
    means = format_table(
        [
            {"metric": key, "mean_improvement": value}
            for key, value in mean_improvements(rows).items()
        ],
        title="Mean improvement across datasets",
        precision=2,
    )
    return table + "\n\n" + means
