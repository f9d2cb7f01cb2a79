"""k-nearest-neighbour distance novelty detector.

A classical distance-based detector (Ramaswamy et al., 2000) widely used as an
IDS baseline: the anomaly score of a query point is the mean distance to its
``k`` nearest neighbours in the (normal) training set.
"""

from __future__ import annotations

import numpy as np

from repro.ml.distances import pairwise_euclidean, pairwise_topk
from repro.novelty.base import NoveltyDetector
from repro.utils.validation import check_array, check_fitted, check_n_features

__all__ = ["KNNDetector"]


class KNNDetector(NoveltyDetector):
    """Mean k-NN distance to the training set as the anomaly score.

    Parameters
    ----------
    n_neighbors:
        Number of neighbours ``k``.
    aggregation:
        ``"mean"`` uses the average of the k nearest distances, ``"max"`` the
        k-th (largest of the k) distance.
    max_train_samples:
        Training subsample size bounding the quadratic distance cost.
    block_size:
        Scoring processes queries in blocks of this many rows, so peak extra
        memory is O(``block_size`` x n_train) floats instead of the full
        n_queries x n_train distance matrix.
    """

    def __init__(
        self,
        n_neighbors: int = 10,
        *,
        aggregation: str = "mean",
        max_train_samples: int | None = 2000,
        block_size: int = 1024,
        threshold_quantile: float = 0.95,
        random_state: int | None = 0,
    ) -> None:
        super().__init__(threshold_quantile=threshold_quantile)
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be at least 1")
        if aggregation not in ("mean", "max"):
            raise ValueError("aggregation must be 'mean' or 'max'")
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        self.n_neighbors = n_neighbors
        self.aggregation = aggregation
        self.max_train_samples = max_train_samples
        self.block_size = block_size
        self.random_state = random_state
        self.X_train_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "KNNDetector":
        X = check_array(X, name="X")
        if self.max_train_samples is not None and X.shape[0] > self.max_train_samples:
            rng = np.random.default_rng(self.random_state)
            idx = rng.choice(X.shape[0], self.max_train_samples, replace=False)
            X = X[idx]
        if X.shape[0] <= self.n_neighbors:
            raise ValueError(
                f"training set must contain more than n_neighbors={self.n_neighbors} samples"
            )
        self.X_train_ = X
        # Training-score distribution for the default threshold: the point
        # itself (distance zero) is excluded from its own neighbour set.
        _, neighbor_dist = pairwise_topk(
            X, X, self.n_neighbors, block_size=self.block_size, exclude_self=True
        )
        self._set_default_threshold(self._aggregate(neighbor_dist))
        return self

    def _aggregate(self, neighbor_distances: np.ndarray) -> np.ndarray:
        if self.aggregation == "mean":
            return neighbor_distances.mean(axis=1)
        return neighbor_distances[:, -1]

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "X_train_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.X_train_.shape[1], fitted_with="detector was fitted")
        if X.shape[0] == 0:
            return np.empty(0)
        _, nearest = pairwise_topk(
            X, self.X_train_, self.n_neighbors, block_size=self.block_size
        )
        return self._aggregate(nearest)

    def _score_samples_naive(self, X: np.ndarray) -> np.ndarray:
        """Full-matrix full-sort reference kept for equivalence tests and benchmarks."""
        check_fitted(self, "X_train_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.X_train_.shape[1], fitted_with="detector was fitted")
        if X.shape[0] == 0:
            return np.empty(0)
        distances = pairwise_euclidean(X, self.X_train_)
        nearest = np.sort(distances, axis=1)[:, : self.n_neighbors]
        return self._aggregate(nearest)
