"""CART decision trees (classification with Gini impurity, regression with MSE).

These trees are the building block for the random forest and gradient
boosting classifiers.  Split candidates are drawn from feature quantiles,
which keeps training fast on the synthetic intrusion datasets while matching
the behaviour of histogram-based implementations such as XGBoost/LightGBM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.flat_tree import FlatForest, FlatTree, flatten_tree
from repro.utils.random import check_random_state
from repro.utils.validation import (
    check_array,
    check_consistent_length,
    check_fitted,
    check_n_features,
)

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor"]


@dataclass
class _TreeNode:
    """A decision-tree node; leaves carry a prediction value."""

    feature: int = -1
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None
    value: np.ndarray | float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - np.sum(proportions**2))


class _BaseTree:
    """Shared recursive construction for classification and regression trees."""

    # Linked construction nodes only back the retained naive reference, and
    # the single-tree forest is recompiled lazily from ``flat_``; snapshots
    # persist the flat arrays alone.
    _snapshot_transient_ = ("root_", "_forest_")

    def __init__(
        self,
        *,
        max_depth: int = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        n_threshold_candidates: int = 16,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if min_samples_split < 2 or min_samples_leaf < 1:
            raise ValueError("min_samples_split must be >= 2 and min_samples_leaf >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.n_threshold_candidates = n_threshold_candidates
        self.random_state = random_state
        self.root_: _TreeNode | None = None
        self.flat_: FlatTree | None = None
        self.n_features_: int | None = None

    # -- customisation points -------------------------------------------------
    def _leaf_value(self, y: np.ndarray) -> np.ndarray | float:
        raise NotImplementedError

    def _impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    # -- feature subsampling ----------------------------------------------------
    def _n_split_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if isinstance(self.max_features, float):
            return max(1, int(self.max_features * n_features))
        return max(1, min(int(self.max_features), n_features))

    # -- fitting -----------------------------------------------------------------
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        X = check_array(X, name="X")
        check_consistent_length(X, y)
        self.n_features_ = X.shape[1]
        self._rng = check_random_state(self.random_state)
        self.root_ = self._grow(X, y, depth=0)
        # Compile the linked nodes into contiguous arrays once, so that batch
        # prediction is a flat-array walk (native kernel or NumPy) instead
        # of per-row recursion.  The single-tree FlatForest is compiled
        # lazily: ensemble members are traversed via their ensemble's
        # compiled forest and never need their own.
        self.flat_ = flatten_tree(self.root_, lambda node, depth: node.value)
        self._forest_: FlatForest | None = None

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _TreeNode:
        node = _TreeNode(value=self._leaf_value(y))
        if (
            depth >= self.max_depth
            or X.shape[0] < self.min_samples_split
            or self._impurity(y) <= 1e-12
        ):
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feature, threshold, left_mask = split
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[left_mask], y[left_mask], depth + 1)
        node.right = self._grow(X[~left_mask], y[~left_mask], depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[int, float, np.ndarray] | None:
        """Best (feature, threshold, left mask) by impurity gain.

        Each feature is sorted once and every candidate threshold is scored
        from cumulative statistics (class counts or moment sums) of the
        sorted targets, so the per-feature cost is O(n log n + t) instead of
        the O(t x n) re-masking of the naive scan.  Candidate enumeration,
        gain arithmetic and tie-breaking (first feature in draw order, first
        threshold in ascending order) match :meth:`_best_split_naive`.
        """
        n_samples, n_features = X.shape
        parent_impurity = self._impurity(y)
        features = self._rng.choice(
            n_features, self._n_split_features(n_features), replace=False
        )
        best_gain = 1e-9
        best: tuple[int, float] | None = None
        for feature in features:
            column = X[:, feature]
            thresholds = self._candidate_thresholds(column)
            if thresholds.size == 0:
                continue
            order = np.argsort(column, kind="stable")
            column_sorted = column[order]
            # Rows going left under "column <= t" are exactly the first
            # n_left rows in sorted order; ties share a side by construction.
            n_left = np.searchsorted(column_sorted, thresholds, side="right")
            valid = (n_left >= self.min_samples_leaf) & (
                n_samples - n_left >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            n_left = n_left[valid]
            impurity_left, impurity_right = self._children_impurities(y[order], n_left)
            child_impurity = (
                n_left * impurity_left + (n_samples - n_left) * impurity_right
            ) / n_samples
            gains = parent_impurity - child_impurity
            pick = int(np.argmax(gains))
            if gains[pick] > best_gain:
                best_gain = float(gains[pick])
                best = (int(feature), float(thresholds[valid][pick]))
        if best is None:
            return None
        feature, threshold = best
        return feature, threshold, X[:, feature] <= threshold

    def _children_impurities(
        self, y_sorted: np.ndarray, n_left: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Left/right child impurities for every candidate split position.

        ``y_sorted`` are the targets ordered by the split feature and
        ``n_left`` the number of rows going left per candidate.  Implemented
        from cumulative statistics by the subclasses.
        """
        raise NotImplementedError

    def _best_split_naive(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[int, float, np.ndarray] | None:
        """Reference O(features x thresholds x n) scan kept for equivalence tests."""
        n_samples, n_features = X.shape
        parent_impurity = self._impurity(y)
        features = self._rng.choice(
            n_features, self._n_split_features(n_features), replace=False
        )
        best_gain = 1e-9
        best: tuple[int, float, np.ndarray] | None = None
        for feature in features:
            column = X[:, feature]
            thresholds = self._candidate_thresholds(column)
            for threshold in thresholds:
                left_mask = column <= threshold
                n_left = int(left_mask.sum())
                n_right = n_samples - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                impurity_left = self._impurity(y[left_mask])
                impurity_right = self._impurity(y[~left_mask])
                child_impurity = (n_left * impurity_left + n_right * impurity_right) / n_samples
                gain = parent_impurity - child_impurity
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float(threshold), left_mask)
        return best

    def _candidate_thresholds(self, column: np.ndarray) -> np.ndarray:
        unique = np.unique(column)
        if unique.size <= 1:
            return np.empty(0)
        if unique.size <= self.n_threshold_candidates:
            return (unique[:-1] + unique[1:]) / 2.0
        quantiles = np.linspace(0.0, 1.0, self.n_threshold_candidates + 2)[1:-1]
        return np.unique(np.quantile(column, quantiles))

    # -- prediction ---------------------------------------------------------------
    def _predict_values(self, X: np.ndarray) -> np.ndarray:
        """``(n_samples, value_dim)`` leaf values via flattened batch traversal."""
        # Snapshots restore only the flat arrays (``root_`` is a naive
        # reference cache), so fittedness is judged on ``flat_``.
        check_fitted(self, "flat_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.n_features_, fitted_with="tree was fitted")
        if self._forest_ is None:
            self._forest_ = FlatForest.from_flat_trees([self.flat_])
        return self._forest_.sum_values(X)

    def _predict_values_naive(self, X: np.ndarray) -> np.ndarray:
        """Per-row recursive reference kept for equivalence tests and benchmarks."""
        check_fitted(self, "root_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.n_features_, fitted_with="tree was fitted")
        values = [np.atleast_1d(np.asarray(self._predict_one(row))) for row in X]
        width = values[0].shape[0] if values else self.flat_.value.shape[1]
        return (
            np.vstack(values)
            if values
            else np.empty((0, width), dtype=np.float64)
        )

    def _predict_one(self, row: np.ndarray) -> np.ndarray | float:
        node = self.root_
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    # -- persistence -----------------------------------------------------------
    def save(self, path, *, metadata: dict | None = None):
        """Write a pickle-free snapshot (flat-tree arrays + manifest) to ``path``."""
        from repro.serve.snapshot import save_snapshot

        return save_snapshot(self, path, metadata=metadata)

    @classmethod
    def load(cls, path):
        """Load a snapshot previously written by :meth:`save`."""
        from repro.serve.snapshot import load_snapshot

        return load_snapshot(path, expected_class=cls)


class DecisionTreeClassifier(_BaseTree):
    """CART classifier with Gini impurity; leaves store class-probability vectors."""

    def __init__(self, **kwargs: object) -> None:
        super().__init__(**kwargs)
        self.classes_: np.ndarray | None = None

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y, minlength=self.classes_.shape[0]).astype(np.float64)
        total = counts.sum()
        return counts / total if total > 0 else counts

    def _impurity(self, y: np.ndarray) -> float:
        return _gini(np.bincount(y, minlength=self.classes_.shape[0]))

    def _children_impurities(
        self, y_sorted: np.ndarray, n_left: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # Cumulative class counts give exact child Gini at every candidate.
        n_classes = self.classes_.shape[0]
        cumulative = np.zeros((y_sorted.size, n_classes), dtype=np.int64)
        cumulative[np.arange(y_sorted.size), y_sorted] = 1
        np.cumsum(cumulative, axis=0, out=cumulative)
        left_counts = cumulative[n_left - 1]
        right_counts = cumulative[-1] - left_counts
        left_prop = left_counts / n_left[:, None]
        right_prop = right_counts / (y_sorted.size - n_left)[:, None]
        return (
            1.0 - np.sum(left_prop**2, axis=1),
            1.0 - np.sum(right_prop**2, axis=1),
        )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        y = np.asarray(y)
        self.classes_, encoded = np.unique(y, return_inverse=True)
        self._fit(X, encoded.astype(np.int64))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability estimates from leaf frequencies."""
        return self._predict_values(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class label per sample."""
        proba = self.predict_proba(X)
        return self.classes_[proba.argmax(axis=1)]


class DecisionTreeRegressor(_BaseTree):
    """CART regressor with MSE impurity; leaves store the target mean."""

    def _leaf_value(self, y: np.ndarray) -> float:
        return float(y.mean()) if y.size else 0.0

    def _impurity(self, y: np.ndarray) -> float:
        return float(y.var()) if y.size else 0.0

    def _children_impurities(
        self, y_sorted: np.ndarray, n_left: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # Child variances from cumulative first/second moments:
        # Var = E[y^2] - E[y]^2, clipped against fp cancellation.  The
        # moments are taken over mean-centered targets (variance is
        # shift-invariant), otherwise a large target offset cancels
        # catastrophically and drowns the real variance.
        y_sorted = y_sorted - y_sorted.mean()
        cum_sum = np.cumsum(y_sorted)
        cum_sq = np.cumsum(y_sorted**2)
        n_left_f = n_left.astype(np.float64)
        n_right_f = y_sorted.size - n_left_f
        sum_left = cum_sum[n_left - 1]
        sq_left = cum_sq[n_left - 1]
        sum_right = cum_sum[-1] - sum_left
        sq_right = cum_sq[-1] - sq_left
        var_left = sq_left / n_left_f - (sum_left / n_left_f) ** 2
        var_right = sq_right / n_right_f - (sum_right / n_right_f) ** 2
        return np.maximum(var_left, 0.0), np.maximum(var_right, 0.0)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        self._fit(X, np.asarray(y, dtype=np.float64))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted target value per sample."""
        return self._predict_values(X)[:, 0]
