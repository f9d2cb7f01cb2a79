"""Gradient-boosted decision trees for binary classification.

Serves as the XGBoost stand-in for the paper's Fig. 1: boosted regression
trees fitted to the negative gradient of the logistic loss, with shrinkage
and optional row subsampling.
"""

from __future__ import annotations

import numpy as np

from repro.ml.flat_tree import FlatForest
from repro.supervised.tree import DecisionTreeRegressor
from repro.utils.random import check_random_state
from repro.utils.validation import (
    check_array,
    check_binary_labels,
    check_consistent_length,
    check_fitted,
    check_n_features,
)

__all__ = ["GradientBoostingClassifier"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


class GradientBoostingClassifier:
    """Binary logistic gradient boosting over shallow regression trees.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds.
    learning_rate:
        Shrinkage applied to every tree's contribution.
    max_depth:
        Depth of the per-round regression trees.
    subsample:
        Row-subsampling fraction per round (stochastic gradient boosting).
    """

    # Per-round regression trees only back the retained naive reference; the
    # compiled flat forest is the deployable state, so snapshots skip them.
    _snapshot_transient_ = ("trees_",)

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        *,
        subsample: float = 1.0,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.random_state = random_state
        self.trees_: list[DecisionTreeRegressor] | None = None
        self.forest_: FlatForest | None = None
        self.initial_log_odds_: float | None = None
        self.n_features_: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        X = check_array(X, name="X")
        y = check_binary_labels(y).astype(np.float64)
        check_consistent_length(X, y)
        self.n_features_ = X.shape[1]
        rng = check_random_state(self.random_state)

        positive_rate = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
        self.initial_log_odds_ = float(np.log(positive_rate / (1.0 - positive_rate)))
        raw = np.full(X.shape[0], self.initial_log_odds_)

        trees: list[DecisionTreeRegressor] = []
        n = X.shape[0]
        for _ in range(self.n_estimators):
            residual = y - _sigmoid(raw)  # negative gradient of logistic loss
            if self.subsample < 1.0:
                idx = rng.choice(n, max(1, int(self.subsample * n)), replace=False)
            else:
                idx = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth, min_samples_leaf=5, random_state=rng
            )
            tree.fit(X[idx], residual[idx])
            # X was validated once above; walk the freshly compiled tree as a
            # one-tree forest rather than re-validating per round.
            raw += (
                self.learning_rate
                * FlatForest.from_flat_trees([tree.flat_]).sum_values(X)[:, 0]
            )
            trees.append(tree)
        self.trees_ = trees
        # Compile the rounds into one flat forest: the additive score is a
        # single ensemble traversal instead of a per-round Python loop.
        self.forest_ = FlatForest.from_flat_trees([tree.flat_ for tree in trees])
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw additive log-odds score before the sigmoid."""
        # Snapshots restore only the compiled forest (``trees_`` is a naive
        # reference cache), so fittedness is judged on ``forest_``.
        check_fitted(self, "forest_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.n_features_, fitted_with="model was fitted")
        return (
            self.initial_log_odds_
            + self.learning_rate * self.forest_.sum_values(X)[:, 0]
        )

    def _decision_function_naive(self, X: np.ndarray) -> np.ndarray:
        """Per-round accumulation reference kept for equivalence tests and benchmarks."""
        check_fitted(self, "trees_")
        X = check_array(X, name="X", allow_empty=True)
        raw = np.full(X.shape[0], self.initial_log_odds_)
        for tree in self.trees_:
            raw += self.learning_rate * tree._predict_values_naive(X)[:, 0]
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """``(n, 2)`` array of class probabilities ``[P(y=0), P(y=1)]``."""
        positive = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - positive, positive])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Binary class predictions at the 0.5 probability threshold."""
        return (self.decision_function(X) > 0.0).astype(np.int64)

    # -- persistence -----------------------------------------------------------
    def save(self, path, *, metadata: dict | None = None):
        """Write a pickle-free snapshot (flat-forest arrays + manifest) to ``path``."""
        from repro.serve.snapshot import save_snapshot

        return save_snapshot(self, path, metadata=metadata)

    @classmethod
    def load(cls, path) -> "GradientBoostingClassifier":
        """Load a snapshot previously written by :meth:`save`."""
        from repro.serve.snapshot import load_snapshot

        return load_snapshot(path, expected_class=cls)
