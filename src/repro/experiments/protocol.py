"""Evaluation protocol shared by every experiment.

Continual methods are trained experience-by-experience; after each training
experience the method is evaluated on the test split of *every* experience,
filling the result matrix ``R_ij`` (paper Algorithm 1, lines 6-11).  Static
novelty detectors are fitted once on the clean normal data and evaluated on
every experience's test split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.continual.base import ContinualMethod
from repro.continual.metrics import ResultMatrix
from repro.continual.scenario import ContinualScenario
from repro.metrics.classification import f1_score
from repro.metrics.ranking import pr_auc_score
from repro.metrics.thresholds import best_f_threshold
from repro.ml.scalers import StandardScaler
from repro.novelty.base import NoveltyDetector

__all__ = [
    "MethodRunResult",
    "StaticDetectorResult",
    "run_continual_method",
    "run_static_detector",
    "measure_inference_time",
]


@dataclass
class MethodRunResult:
    """Outcome of running a continual method over a scenario."""

    method_name: str
    dataset_name: str
    f1_matrix: ResultMatrix
    prauc_matrix: ResultMatrix | None
    train_time_s: float
    inference_time_ms_per_sample: float
    details: dict = field(default_factory=dict)

    # -- continual-learning metrics (paper Sec. IV-A) ---------------------------
    @property
    def avg_f1(self) -> float:
        return self.f1_matrix.average()

    @property
    def fwd_transfer(self) -> float:
        return self.f1_matrix.forward_transfer()

    @property
    def bwd_transfer(self) -> float:
        return self.f1_matrix.backward_transfer()

    @property
    def avg_prauc(self) -> float:
        if self.prauc_matrix is None:
            return float("nan")
        return self.prauc_matrix.average()

    def summary(self) -> dict[str, float | str]:
        return {
            "method": self.method_name,
            "dataset": self.dataset_name,
            "avg_f1": self.avg_f1,
            "fwd_transfer": self.fwd_transfer,
            "bwd_transfer": self.bwd_transfer,
            "avg_prauc": self.avg_prauc,
            "train_time_s": self.train_time_s,
            "inference_time_ms": self.inference_time_ms_per_sample,
        }


@dataclass
class StaticDetectorResult:
    """Outcome of evaluating a static (non-continual) novelty detector."""

    method_name: str
    dataset_name: str
    per_experience_f1: list[float]
    per_experience_prauc: list[float]
    train_time_s: float
    inference_time_ms_per_sample: float

    @property
    def mean_f1(self) -> float:
        return float(np.mean(self.per_experience_f1)) if self.per_experience_f1 else float("nan")

    @property
    def mean_prauc(self) -> float:
        return (
            float(np.mean(self.per_experience_prauc))
            if self.per_experience_prauc
            else float("nan")
        )

    def summary(self) -> dict[str, float | str]:
        return {
            "method": self.method_name,
            "dataset": self.dataset_name,
            "mean_f1": self.mean_f1,
            "mean_prauc": self.mean_prauc,
            "train_time_s": self.train_time_s,
            "inference_time_ms": self.inference_time_ms_per_sample,
        }


def run_continual_method(
    method: ContinualMethod,
    scenario: ContinualScenario,
    *,
    compute_prauc: bool = True,
) -> MethodRunResult:
    """Run a continual method through the full train/evaluate protocol."""
    n = scenario.n_experiences
    f1_matrix = ResultMatrix.empty(n)
    prauc_matrix = ResultMatrix.empty(n) if (compute_prauc and method.supports_scores) else None

    method.setup(scenario.clean_normal)
    train_time = 0.0
    inference_time = 0.0
    inference_samples = 0

    for i, experience in enumerate(scenario):
        start = time.perf_counter()
        method.fit_experience(
            experience.X_train,
            calibration_X=experience.calibration_X if method.requires_labels else None,
            calibration_y=experience.calibration_y if method.requires_labels else None,
        )
        train_time += time.perf_counter() - start

        for j, test_experience in enumerate(scenario):
            start = time.perf_counter()
            y_pred = method.predict(test_experience.X_test, y_true=test_experience.y_test)
            inference_time += time.perf_counter() - start
            inference_samples += test_experience.n_test
            f1_matrix[i, j] = f1_score(test_experience.y_test, y_pred)
            if prauc_matrix is not None:
                scores = method.score_samples(test_experience.X_test)
                prauc_matrix[i, j] = pr_auc_score(test_experience.y_test, scores)

    inference_ms = 1000.0 * inference_time / max(inference_samples, 1)
    return MethodRunResult(
        method_name=method.name,
        dataset_name=scenario.dataset_name,
        f1_matrix=f1_matrix,
        prauc_matrix=prauc_matrix,
        train_time_s=train_time,
        inference_time_ms_per_sample=inference_ms,
    )


def run_static_detector(
    detector: NoveltyDetector,
    scenario: ContinualScenario,
    *,
    detector_name: str | None = None,
    compute_prauc: bool = True,
) -> StaticDetectorResult:
    """Fit a static novelty detector on the clean normal data and evaluate every experience.

    The paper notes these detectors "cannot be retrained on unlabeled
    contaminated data", so they are fitted once before the stream starts.
    Thresholding uses the same Best-F rule as CND-IDS for a fair comparison.
    """
    scaler = StandardScaler().fit(scenario.clean_normal)
    clean_scaled = scaler.transform(scenario.clean_normal)

    start = time.perf_counter()
    detector.fit(clean_scaled)
    train_time = time.perf_counter() - start

    per_f1: list[float] = []
    per_prauc: list[float] = []
    inference_time = 0.0
    inference_samples = 0
    for experience in scenario:
        X_test = scaler.transform(experience.X_test)
        start = time.perf_counter()
        scores = detector.score_samples(X_test)
        inference_time += time.perf_counter() - start
        inference_samples += experience.n_test
        threshold, _ = best_f_threshold(scores, experience.y_test)
        y_pred = (scores > threshold).astype(np.int64)
        per_f1.append(f1_score(experience.y_test, y_pred))
        if compute_prauc:
            per_prauc.append(pr_auc_score(experience.y_test, scores))

    inference_ms = 1000.0 * inference_time / max(inference_samples, 1)
    return StaticDetectorResult(
        method_name=detector_name or type(detector).__name__,
        dataset_name=scenario.dataset_name,
        per_experience_f1=per_f1,
        per_experience_prauc=per_prauc,
        train_time_s=train_time,
        inference_time_ms_per_sample=inference_ms,
    )


def measure_inference_time(
    calls: Mapping[str, tuple[Callable[[np.ndarray], object], np.ndarray]],
    *,
    n_rounds: int = 31,
) -> dict[str, float]:
    """Median per-sample time (milliseconds) of each ``score_fn(X)`` in ``calls``.

    Each of the ``n_rounds`` rounds calls every entry once, in order, so a
    slow spell of the host falls on every method alike rather than on the one
    being timed.  An empty ``X`` gives ``nan``.
    """
    elapsed: dict[str, list[float]] = {name: [] for name in calls}
    for _ in range(max(n_rounds, 1)):
        for name, (score_fn, X) in calls.items():
            start = time.perf_counter()
            score_fn(X)
            elapsed[name].append(time.perf_counter() - start)
    return {
        name: 1000.0 * float(np.median(elapsed[name])) / len(X) if len(X) else float("nan")
        for name, (_, X) in calls.items()
    }
