"""Histogram-Based Outlier Score (HBOS, Goldstein & Dengel 2012).

A very fast feature-wise density estimator: each feature gets an equal-width
histogram fitted on the training data; the anomaly score of a sample is the
sum of negative log densities of the bins its feature values fall into.
Feature independence is assumed, which makes HBOS cheap and a common IDS
baseline for high-rate traffic.
"""

from __future__ import annotations

import numpy as np

from repro.ml.binning import histogram_log_densities
from repro.novelty.base import NoveltyDetector
from repro.utils.validation import check_array, check_fitted, check_n_features

__all__ = ["HBOS"]


class HBOS(NoveltyDetector):
    """Histogram-based outlier score.

    Parameters
    ----------
    n_bins:
        Number of equal-width bins per feature.
    smoothing:
        Additive count smoothing so empty bins (unseen value ranges) get a
        finite, small density instead of an infinite score.
    """

    def __init__(
        self,
        n_bins: int = 20,
        *,
        smoothing: float = 0.5,
        threshold_quantile: float = 0.95,
    ) -> None:
        super().__init__(threshold_quantile=threshold_quantile)
        if n_bins < 2:
            raise ValueError("n_bins must be at least 2")
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        self.n_bins = n_bins
        self.smoothing = smoothing
        self.bin_edges_: np.ndarray | None = None
        self.log_densities_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "HBOS":
        X = check_array(X, name="X")
        n_samples, n_features = X.shape
        bin_edges = np.empty((n_features, self.n_bins + 1))
        log_densities = np.empty((n_features, self.n_bins))
        for j in range(n_features):
            column = X[:, j]
            lo, hi = column.min(), column.max()
            if lo == hi:
                hi = lo + 1.0
            edges = np.linspace(lo, hi, self.n_bins + 1)
            counts, _ = np.histogram(column, bins=edges)
            densities = (counts + self.smoothing) / (n_samples + self.smoothing * self.n_bins)
            bin_edges[j] = edges
            log_densities[j] = np.log(densities)
        self.bin_edges_ = bin_edges
        self.log_densities_ = log_densities
        self._set_default_threshold(self.score_samples(X))
        return self

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "bin_edges_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.bin_edges_.shape[0], fitted_with="detector was fitted")
        if X.shape[0] == 0:
            return np.empty(0)
        # All features binned in one batched searchsorted; out-of-range
        # values get the density of the emptiest bin (the smoothing floor).
        return -histogram_log_densities(X, self.bin_edges_, self.log_densities_).sum(axis=1)

    def _score_samples_naive(self, X: np.ndarray) -> np.ndarray:
        """Per-feature scoring loop kept for equivalence tests and benchmarks."""
        check_fitted(self, "bin_edges_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.bin_edges_.shape[0], fitted_with="detector was fitted")
        if X.shape[0] == 0:
            return np.empty(0)
        scores = np.zeros(X.shape[0])
        for j in range(X.shape[1]):
            edges = self.bin_edges_[j]
            bins = np.clip(np.searchsorted(edges, X[:, j], side="right") - 1, 0, self.n_bins - 1)
            log_density = self.log_densities_[j][bins]
            out_of_range = (X[:, j] < edges[0]) | (X[:, j] > edges[-1])
            log_density = np.where(out_of_range, self.log_densities_[j].min(), log_density)
            scores -= log_density
        return scores
