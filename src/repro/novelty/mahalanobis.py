"""Gaussian / Mahalanobis-distance novelty detector.

Models the normal training data as a single multivariate Gaussian with a
shrinkage-regularised covariance matrix; the anomaly score is the squared
Mahalanobis distance to the training mean.  This is the classical parametric
baseline for network anomaly detection.
"""

from __future__ import annotations

import numpy as np

from repro.novelty.base import NoveltyDetector
from repro.utils.validation import check_array, check_fitted, check_n_features

__all__ = ["MahalanobisDetector"]


class MahalanobisDetector(NoveltyDetector):
    """Squared Mahalanobis distance to the training distribution.

    Parameters
    ----------
    shrinkage:
        Ledoit-Wolf style shrinkage coefficient in [0, 1): the covariance is
        ``(1 - shrinkage) * S + shrinkage * diag(mean variance)``, keeping the
        estimate invertible for correlated or scarce data.
    """

    def __init__(self, *, shrinkage: float = 0.1, threshold_quantile: float = 0.95) -> None:
        super().__init__(threshold_quantile=threshold_quantile)
        if not 0.0 <= shrinkage < 1.0:
            raise ValueError("shrinkage must be in [0, 1)")
        self.shrinkage = shrinkage
        self.mean_: np.ndarray | None = None
        self.precision_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "MahalanobisDetector":
        X = check_array(X, name="X")
        self.mean_ = X.mean(axis=0)
        centered = X - self.mean_
        covariance = centered.T @ centered / max(X.shape[0] - 1, 1)
        average_variance = float(np.trace(covariance)) / X.shape[1]
        if average_variance <= 0.0:
            average_variance = 1.0
        shrunk = (1.0 - self.shrinkage) * covariance + self.shrinkage * average_variance * np.eye(
            X.shape[1]
        )
        # A tiny ridge keeps the matrix invertible even for duplicated features.
        shrunk += 1e-9 * average_variance * np.eye(X.shape[1])
        self.precision_ = np.linalg.inv(shrunk)
        self._set_default_threshold(self.score_samples(X))
        return self

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "precision_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.mean_.shape[0], fitted_with="detector was fitted")
        if X.shape[0] == 0:
            return np.empty(0)
        centered = X - self.mean_
        return np.einsum("ij,jk,ik->i", centered, self.precision_, centered)
