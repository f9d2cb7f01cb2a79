"""Shared, cached execution layer for the figure/table runners.

Several figures reuse the same underlying runs (e.g. the CND-IDS runs appear
in Fig. 3, Table II, Fig. 4, Fig. 5 and Table IV).  This module builds
scenarios, methods and detectors from an :class:`ExperimentConfig` and caches
results per (config, dataset, method) within the process so a full
regeneration of the evaluation section does not repeat work.
"""

from __future__ import annotations

import numpy as np

from repro.continual.baselines import ADCN, LwF
from repro.continual.base import ContinualMethod
from repro.continual.scenario import ContinualScenario
from repro.core.losses import CNDLossConfig
from repro.core.model import CNDIDS
from repro.datasets.registry import load_dataset
from repro.experiments.config import ExperimentConfig
from repro.experiments.protocol import (
    MethodRunResult,
    StaticDetectorResult,
    run_continual_method,
    run_static_detector,
)
from repro.novelty import (
    DeepIsolationForest,
    IsolationForest,
    LocalOutlierFactor,
    NoveltyDetector,
    OneClassSVM,
    PCAReconstructionDetector,
)

__all__ = [
    "CONTINUAL_METHOD_NAMES",
    "STATIC_DETECTOR_NAMES",
    "ABLATION_VARIANTS",
    "build_scenario",
    "build_continual_method",
    "build_static_detector",
    "get_scenario",
    "get_continual_result",
    "get_static_result",
    "clear_cache",
]

#: Continual methods compared in Fig. 3 / Table II.
CONTINUAL_METHOD_NAMES: tuple[str, ...] = ("ADCN", "LwF", "CND-IDS")

#: Static novelty detectors compared in Fig. 4 / Fig. 5.
STATIC_DETECTOR_NAMES: tuple[str, ...] = ("LOF", "OCSVM", "DIF", "PCA")

#: Loss ablation variants of Table III.
ABLATION_VARIANTS: dict[str, CNDLossConfig] = {
    "CND-IDS": CNDLossConfig.full(),
    "CND-IDS (w/o LCS)": CNDLossConfig.without_cluster_separation(),
    "CND-IDS (w/o LR)": CNDLossConfig.without_reconstruction(),
    "CND-IDS (w/o LR and LCL)": CNDLossConfig.without_reconstruction_and_continual(),
}

_SCENARIO_CACHE: dict[tuple, ContinualScenario] = {}
_CONTINUAL_CACHE: dict[tuple, MethodRunResult] = {}
_STATIC_CACHE: dict[tuple, StaticDetectorResult] = {}


def clear_cache() -> None:
    """Drop all cached scenarios and results (mainly for tests)."""
    _SCENARIO_CACHE.clear()
    _CONTINUAL_CACHE.clear()
    _STATIC_CACHE.clear()


# -- builders --------------------------------------------------------------------
def build_scenario(config: ExperimentConfig, dataset_name: str) -> ContinualScenario:
    """Generate a dataset and wrap it in the paper's continual scenario."""
    dataset = load_dataset(dataset_name, scale=config.scale, seed=config.seed)
    return ContinualScenario.from_dataset(
        dataset,
        n_experiences=config.n_experiences(dataset_name),
        clean_normal_fraction=config.clean_normal_fraction,
        test_fraction=config.test_fraction,
        calibration_size=config.calibration_size,
        seed=config.seed,
    )


def build_continual_method(
    name: str,
    input_dim: int,
    config: ExperimentConfig,
    *,
    loss_config: CNDLossConfig | None = None,
) -> ContinualMethod:
    """Instantiate a continual method by display name (``ADCN``, ``LwF``, ``CND-IDS``)."""
    common = dict(
        latent_dim=config.latent_dim,
        hidden_dims=config.hidden_dims,
        epochs=config.epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        random_state=config.seed,
    )
    if name == "ADCN":
        return ADCN(input_dim, **common)
    if name == "LwF":
        return LwF(input_dim, **common)
    if name.startswith("CND-IDS"):
        if loss_config is None:
            loss_config = ABLATION_VARIANTS.get(name, CNDLossConfig.full())
        if loss_config == CNDLossConfig.full():
            loss_config = CNDLossConfig(
                lambda_r=config.lambda_r,
                lambda_cl=config.lambda_cl,
                margin=config.margin,
            )
        return CNDIDS(
            input_dim,
            loss_config=loss_config,
            pca_variance=config.pca_variance,
            max_clean_normal=config.max_clean_normal,
            **common,
        )
    raise KeyError(f"unknown continual method {name!r}")


def build_static_detector(name: str, config: ExperimentConfig) -> NoveltyDetector:
    """Instantiate a static novelty detector by display name."""
    seed = config.seed
    if name == "LOF":
        return LocalOutlierFactor(n_neighbors=20, random_state=seed)
    if name == "OCSVM":
        return OneClassSVM(nu=0.1, random_state=seed)
    if name == "DIF":
        return DeepIsolationForest(random_state=seed)
    if name == "PCA":
        return PCAReconstructionDetector(n_components=config.pca_variance)
    if name == "IForest":
        return IsolationForest(random_state=seed)
    raise KeyError(f"unknown static detector {name!r}")


# -- cached execution ----------------------------------------------------------------
def get_scenario(config: ExperimentConfig, dataset_name: str) -> ContinualScenario:
    """Cached scenario for (config, dataset)."""
    key = (config, dataset_name)
    if key not in _SCENARIO_CACHE:
        _SCENARIO_CACHE[key] = build_scenario(config, dataset_name)
    return _SCENARIO_CACHE[key]


def get_continual_result(
    config: ExperimentConfig,
    dataset_name: str,
    method_name: str,
    *,
    loss_config: CNDLossConfig | None = None,
    variant_label: str | None = None,
) -> MethodRunResult:
    """Cached run of a continual method on a dataset's scenario."""
    label = variant_label or method_name
    key = (config, dataset_name, label)
    if key not in _CONTINUAL_CACHE:
        scenario = get_scenario(config, dataset_name)
        method = build_continual_method(
            method_name, scenario.n_features, config, loss_config=loss_config
        )
        result = run_continual_method(method, scenario)
        result.method_name = label
        _CONTINUAL_CACHE[key] = result
    return _CONTINUAL_CACHE[key]


def get_static_result(
    config: ExperimentConfig, dataset_name: str, detector_name: str
) -> StaticDetectorResult:
    """Cached evaluation of a static detector on a dataset's scenario."""
    key = (config, dataset_name, detector_name)
    if key not in _STATIC_CACHE:
        scenario = get_scenario(config, dataset_name)
        detector = build_static_detector(detector_name, config)
        _STATIC_CACHE[key] = run_static_detector(
            detector, scenario, detector_name=detector_name
        )
    return _STATIC_CACHE[key]


def inference_batch(config: ExperimentConfig, dataset_name: str, size: int = 2000) -> np.ndarray:
    """A fixed test batch (concatenated experience test splits) for timing runs."""
    scenario = get_scenario(config, dataset_name)
    X = np.vstack([experience.X_test for experience in scenario])
    if X.shape[0] > size:
        X = X[:size]
    return X
