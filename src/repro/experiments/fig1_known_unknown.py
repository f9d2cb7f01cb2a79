"""Figure 1 — supervised ML-IDS accuracy on known vs. unknown attacks.

The paper's motivating experiment trains XGBoost, Random Forest and a DNN on
labeled data containing a subset of the attack families ("known" attacks) and
then measures accuracy on test traffic containing (a) those known families and
(b) families never seen during training ("unknown" attacks).  The headline
observation is the large accuracy drop on unknown attacks.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset
from repro.datasets.registry import load_dataset
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_table
from repro.metrics.classification import accuracy_score
from repro.ml.scalers import StandardScaler
from repro.ml.splits import train_test_split
from repro.supervised import (
    DNNClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from repro.utils.random import check_random_state

__all__ = ["run_fig1", "format_fig1", "split_known_unknown"]

#: Display names follow the paper; GradientBoosting stands in for XGBoost.
FIG1_MODEL_NAMES: tuple[str, ...] = ("XGBoost", "RandomForest", "DNN")

#: Fig. 1 trains supervised tree ensembles per dataset, which would dominate
#: a full regeneration's runtime, so it never runs above this dataset scale.
FIG1_MAX_SCALE = 0.002


def _build_model(name: str, seed: int):
    if name == "XGBoost":
        return GradientBoostingClassifier(
            n_estimators=40, max_depth=3, subsample=0.8, random_state=seed
        )
    if name == "RandomForest":
        return RandomForestClassifier(n_estimators=30, max_depth=10, random_state=seed)
    if name == "DNN":
        return DNNClassifier(
            hidden_dims=(128, 64), epochs=15, learning_rate=0.01, random_state=seed
        )
    raise KeyError(f"unknown Fig. 1 model {name!r}")


def split_known_unknown(
    dataset: Dataset, *, known_fraction: float = 0.5, seed: int | None = 0
) -> tuple[list[str], list[str]]:
    """Split the dataset's attack families into known (training) and unknown (zero-day) sets."""
    rng = check_random_state(seed)
    families = list(dataset.attack_type_names)
    rng.shuffle(families)
    n_known = max(1, int(round(known_fraction * len(families))))
    n_known = min(n_known, len(families) - 1) if len(families) > 1 else n_known
    return sorted(families[:n_known]), sorted(families[n_known:])


def _evaluate_dataset(
    dataset: Dataset, config: ExperimentConfig
) -> list[dict[str, object]]:
    known, unknown = split_known_unknown(dataset, seed=config.seed)
    known_mask = np.isin(dataset.attack_types, known) & (dataset.y == 1)
    unknown_mask = np.isin(dataset.attack_types, unknown) & (dataset.y == 1)
    normal_mask = dataset.y == 0

    # Labeled pool: normal + known attacks, split into train/test.
    pool_idx = np.flatnonzero(normal_mask | known_mask)
    X_pool, y_pool = dataset.X[pool_idx], dataset.y[pool_idx]
    X_train, X_test_known, y_train, y_test_known = train_test_split(
        X_pool, y_pool, test_size=0.3, stratify=y_pool, random_state=config.seed
    )

    # Unknown-attack test set: held-out normal mixed with unseen families.
    unknown_idx = np.flatnonzero(unknown_mask)
    n_normal_for_unknown = min(int(np.sum(normal_mask)) // 4, max(len(unknown_idx), 1))
    rng = check_random_state(config.seed + 1)
    normal_for_unknown = rng.choice(
        np.flatnonzero(normal_mask), n_normal_for_unknown, replace=False
    )
    unknown_test_idx = np.concatenate([unknown_idx, normal_for_unknown])
    X_test_unknown = dataset.X[unknown_test_idx]
    y_test_unknown = dataset.y[unknown_test_idx]

    scaler = StandardScaler().fit(X_train)
    X_train_s = scaler.transform(X_train)
    X_test_known_s = scaler.transform(X_test_known)
    X_test_unknown_s = scaler.transform(X_test_unknown)

    rows = []
    for model_name in FIG1_MODEL_NAMES:
        model = _build_model(model_name, config.seed)
        model.fit(X_train_s, y_train)
        known_acc = accuracy_score(y_test_known, model.predict(X_test_known_s))
        unknown_acc = accuracy_score(y_test_unknown, model.predict(X_test_unknown_s))
        rows.append(
            {
                "dataset": dataset.name,
                "model": model_name,
                "known_accuracy": 100.0 * known_acc,
                "unknown_accuracy": 100.0 * unknown_acc,
                "known_families": len(known),
                "unknown_families": len(unknown),
            }
        )
    return rows


def run_fig1(config: ExperimentConfig | None = None) -> list[dict[str, object]]:
    """Reproduce Fig. 1 for every configured dataset, at most at ``FIG1_MAX_SCALE``."""
    config = config or ExperimentConfig()
    scale = min(config.scale, FIG1_MAX_SCALE)
    rows: list[dict[str, object]] = []
    for dataset_name in config.datasets:
        dataset = load_dataset(dataset_name, scale=scale, seed=config.seed)
        rows.extend(_evaluate_dataset(dataset, config))
    return rows


def format_fig1(rows: list[dict[str, object]]) -> str:
    """Render the Fig. 1 reproduction as text."""
    return format_table(
        rows,
        columns=[
            "dataset",
            "model",
            "known_accuracy",
            "unknown_accuracy",
            "known_families",
            "unknown_families",
        ],
        title="Fig. 1: supervised ML-IDS accuracy (%) on known vs. unknown attacks",
        precision=1,
    )
