"""Table IV — average inference time per test sample.

Each method is trained on a scenario once; then all methods are timed on a
fixed batch of test samples in interleaved rounds and each reports its median
round.  Absolute values depend on this machine (the paper used a GPU host);
the comparison of interest is the relative ordering: CND-IDS close to plain
PCA and much faster than ADCN, LwF and DIF.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.protocol import measure_inference_time
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    build_continual_method,
    build_static_detector,
    get_scenario,
    inference_batch,
)
from repro.ml.scalers import StandardScaler

__all__ = ["run_table4", "format_table4", "PAPER_TABLE4"]

#: Paper-reported inference times in milliseconds per sample.
PAPER_TABLE4 = {
    "CND-IDS": 0.0019,
    "ADCN": 0.4061,
    "LwF": 0.0677,
    "DIF": 1.0535,
    "PCA": 0.0018,
}

#: Methods timed in Table IV.
TABLE4_METHODS: tuple[str, ...] = ("CND-IDS", "ADCN", "LwF", "DIF", "PCA")


def run_table4(
    config: ExperimentConfig | None = None,
    *,
    dataset_name: str | None = None,
    batch_size: int = 2000,
    n_rounds: int = 31,
) -> list[dict[str, object]]:
    """Measure the per-sample inference time of every method on one dataset."""
    config = config or ExperimentConfig()
    dataset_name = dataset_name or config.datasets[0]
    scenario = get_scenario(config, dataset_name)
    X_batch = inference_batch(config, dataset_name, size=batch_size)

    calls = {}
    for method_name in TABLE4_METHODS:
        if method_name in ("CND-IDS", "ADCN", "LwF"):
            method = build_continual_method(method_name, scenario.n_features, config)
            method.setup(scenario.clean_normal)
            first = scenario[0]
            method.fit_experience(
                first.X_train,
                calibration_X=first.calibration_X if method.requires_labels else None,
                calibration_y=first.calibration_y if method.requires_labels else None,
            )
            score_fn = method.score_samples if method.supports_scores else method.predict
            calls[method_name] = (score_fn, X_batch)
        else:
            detector = build_static_detector(method_name, config)
            scaler = StandardScaler().fit(scenario.clean_normal)
            detector.fit(scaler.transform(scenario.clean_normal))
            calls[method_name] = (detector.score_samples, scaler.transform(X_batch))

    times_ms = measure_inference_time(calls, n_rounds=n_rounds)
    return [
        {
            "method": method_name,
            "inference_time_ms": times_ms[method_name],
            "paper_inference_time_ms": PAPER_TABLE4[method_name],
        }
        for method_name in TABLE4_METHODS
    ]


def format_table4(rows: list[dict[str, object]]) -> str:
    """Render the Table IV reproduction as text."""
    return format_table(
        rows,
        columns=["method", "inference_time_ms", "paper_inference_time_ms"],
        title="Table IV: average inference time per test sample (ms)",
        precision=4,
    )
