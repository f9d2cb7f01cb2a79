"""Local Outlier Factor in novelty-detection mode (Breunig et al., 2000).

The detector is fitted on training data and scores query points by their LOF
value with respect to the training set: the ratio between the average local
reachability density of a point's neighbours and its own.  Values around 1
indicate inliers; larger values indicate outliers.
"""

from __future__ import annotations

import numpy as np

from repro.ml.distances import pairwise_euclidean, pairwise_topk
from repro.novelty.base import NoveltyDetector
from repro.utils.validation import check_array, check_fitted, check_n_features

__all__ = ["LocalOutlierFactor"]


class LocalOutlierFactor(NoveltyDetector):
    """k-NN based Local Outlier Factor for novelty detection.

    Parameters
    ----------
    n_neighbors:
        Number of neighbours ``k`` used for k-distance and reachability.
    max_train_samples:
        The training set is subsampled to this size (uniformly at random) to
        bound the quadratic distance computations; ``None`` keeps everything.
    block_size:
        Neighbour search processes queries in blocks of this many rows, so
        peak extra memory is O(``block_size`` x n_train) floats instead of
        the full n_queries x n_train distance matrix.
    """

    def __init__(
        self,
        n_neighbors: int = 20,
        *,
        max_train_samples: int | None = 2000,
        block_size: int = 1024,
        threshold_quantile: float = 0.95,
        random_state: int | None = 0,
    ) -> None:
        super().__init__(threshold_quantile=threshold_quantile)
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be at least 1")
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        self.n_neighbors = n_neighbors
        self.max_train_samples = max_train_samples
        self.block_size = block_size
        self.random_state = random_state
        self.X_train_: np.ndarray | None = None
        self._train_k_distance: np.ndarray | None = None
        self._train_lrd: np.ndarray | None = None

    # -- fitting ---------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "LocalOutlierFactor":
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
        neighbor_idx, neighbor_dist = pairwise_topk(
            X, X, self.n_neighbors, block_size=self.block_size, exclude_self=True
        )
        # k-distance of each training point = distance to its k-th neighbour.
        self._train_k_distance = neighbor_dist[:, -1]

        # reach-dist_k(p, o) = max(k-distance(o), d(p, o))
        reach = np.maximum(self._train_k_distance[neighbor_idx], neighbor_dist)
        self._train_lrd = 1.0 / (reach.mean(axis=1) + 1e-12)
        train_scores = self._lof_from_neighbors(neighbor_idx, neighbor_dist)
        self._set_default_threshold(train_scores)
        return self

    def _lof_from_neighbors(
        self, neighbor_idx: np.ndarray, neighbor_dist: np.ndarray
    ) -> np.ndarray:
        """LOF scores given neighbour indices/distances into the training set."""
        reach = np.maximum(self._train_k_distance[neighbor_idx], neighbor_dist)
        lrd = 1.0 / (reach.mean(axis=1) + 1e-12)
        neighbor_lrd = self._train_lrd[neighbor_idx]
        return neighbor_lrd.mean(axis=1) / (lrd + 1e-12)

    # -- scoring ---------------------------------------------------------------
    def score_samples(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "X_train_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.X_train_.shape[1], fitted_with="detector was fitted")
        if X.shape[0] == 0:
            return np.empty(0)
        neighbor_idx, neighbor_dist = pairwise_topk(
            X, self.X_train_, self.n_neighbors, block_size=self.block_size
        )
        return self._lof_from_neighbors(neighbor_idx, neighbor_dist)

    def _score_samples_naive(self, X: np.ndarray) -> np.ndarray:
        """Full-matrix full-argsort reference kept for equivalence tests and benchmarks."""
        check_fitted(self, "X_train_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.X_train_.shape[1], fitted_with="detector was fitted")
        if X.shape[0] == 0:
            return np.empty(0)
        k = self.n_neighbors
        distances = pairwise_euclidean(X, self.X_train_)
        neighbor_idx = np.argsort(distances, axis=1)[:, :k]
        neighbor_dist = np.take_along_axis(distances, neighbor_idx, axis=1)
        return self._lof_from_neighbors(neighbor_idx, neighbor_dist)
