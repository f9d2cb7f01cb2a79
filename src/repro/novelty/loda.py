"""LODA: Lightweight On-line Detector of Anomalies (Pevny, 2016).

An ensemble of sparse random one-dimensional projections, each equipped with a
histogram density estimate.  The anomaly score of a sample is the average
negative log density across projections.  LODA is designed for exactly the
setting the paper targets — high-rate streams on constrained devices — which
makes it a natural extra baseline for the novelty-detector comparison.
"""

from __future__ import annotations

import numpy as np

from repro.ml.binning import histogram_log_densities
from repro.novelty.base import NoveltyDetector
from repro.utils.random import check_random_state
from repro.utils.validation import check_array, check_fitted, check_n_features

__all__ = ["LODA"]


class LODA(NoveltyDetector):
    """Ensemble of random sparse projections with histogram densities.

    Parameters
    ----------
    n_projections:
        Number of random one-dimensional projections.
    n_bins:
        Histogram bins per projection.
    smoothing:
        Additive count smoothing for empty bins.
    """

    def __init__(
        self,
        n_projections: int = 50,
        n_bins: int = 20,
        *,
        smoothing: float = 0.5,
        threshold_quantile: float = 0.95,
        random_state: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(threshold_quantile=threshold_quantile)
        if n_projections < 1 or n_bins < 2:
            raise ValueError("n_projections must be >= 1 and n_bins >= 2")
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        self.n_projections = n_projections
        self.n_bins = n_bins
        self.smoothing = smoothing
        self.random_state = random_state
        self.projections_: np.ndarray | None = None
        self.bin_edges_: np.ndarray | None = None
        self.log_densities_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "LODA":
        X = check_array(X, name="X")
        n_samples, n_features = X.shape
        rng = check_random_state(self.random_state)

        # Sparse projections: each uses ~sqrt(d) non-zero Gaussian weights.
        n_nonzero = max(1, int(round(np.sqrt(n_features))))
        projections = np.zeros((self.n_projections, n_features))
        for i in range(self.n_projections):
            chosen = rng.choice(n_features, n_nonzero, replace=False)
            projections[i, chosen] = rng.normal(size=n_nonzero)
        self.projections_ = projections

        projected = X @ projections.T  # (n_samples, n_projections)
        bin_edges = np.empty((self.n_projections, self.n_bins + 1))
        log_densities = np.empty((self.n_projections, self.n_bins))
        for i in range(self.n_projections):
            column = projected[:, i]
            lo, hi = column.min(), column.max()
            if lo == hi:
                hi = lo + 1.0
            edges = np.linspace(lo, hi, self.n_bins + 1)
            counts, _ = np.histogram(column, bins=edges)
            densities = (counts + self.smoothing) / (n_samples + self.smoothing * self.n_bins)
            bin_edges[i] = edges
            log_densities[i] = np.log(densities)
        self.bin_edges_ = bin_edges
        self.log_densities_ = log_densities
        self._set_default_threshold(self.score_samples(X))
        return self

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "projections_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.projections_.shape[1], fitted_with="detector was fitted")
        if X.shape[0] == 0:
            return np.empty(0)
        projected = X @ self.projections_.T
        # All projections binned in one batched searchsorted; out-of-range
        # values get the density of the emptiest bin (the smoothing floor).
        log_density = histogram_log_densities(
            projected, self.bin_edges_, self.log_densities_
        )
        return -log_density.sum(axis=1) / self.n_projections

    def _score_samples_naive(self, X: np.ndarray) -> np.ndarray:
        """Per-projection scoring loop kept for equivalence tests and benchmarks."""
        check_fitted(self, "projections_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.projections_.shape[1], fitted_with="detector was fitted")
        if X.shape[0] == 0:
            return np.empty(0)
        projected = X @ self.projections_.T
        scores = np.zeros(X.shape[0])
        for i in range(self.n_projections):
            edges = self.bin_edges_[i]
            bins = np.clip(
                np.searchsorted(edges, projected[:, i], side="right") - 1, 0, self.n_bins - 1
            )
            log_density = self.log_densities_[i][bins]
            out_of_range = (projected[:, i] < edges[0]) | (projected[:, i] > edges[-1])
            log_density = np.where(out_of_range, self.log_densities_[i].min(), log_density)
            scores -= log_density
        return scores / self.n_projections
