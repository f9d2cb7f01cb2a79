"""Isolation Forest (Liu, Ting & Zhou, 2008).

Builds an ensemble of isolation trees on random subsamples; the anomaly score
of a sample is ``2^(-E[h(x)] / c(psi))`` where ``E[h(x)]`` is the average path
length over the ensemble and ``c(psi)`` the expected path length of an
unsuccessful BST search in a subsample of size ``psi``.

``fit`` grows every tree straight into the :class:`~repro.ml.flat_tree.FlatForest`
layout with one iterative pre-order builder: sibling slots are consecutive,
leaves self-loop with a ``+inf`` threshold and carry ``depth + c(size)``
from one ``c(0..psi)`` table.  Each tree partitions an index array over its
transposed ``(d, psi)`` subsample in place, one slice per node, so no row
subset is copied per node and no linked nodes exist.  The builder runs in C
(:class:`repro.ml.native.ITreeGrower`) when the native kernels are
available, and as the Python ``_grow_tree`` otherwise; both draw the
sequence below and grow the same forest bit for bit.

Random-number contract (every fit draws exactly this sequence, so forests
are reproducible from a seed and a shared generator ends in a known state):

* trees are drawn in order, each with ``rng.choice(n, psi, replace=False)``;
* nodes are visited in pre-order, left subtree first;
* a node at the depth limit ``ceil(log2 psi)`` or with at most one row draws
  nothing;
* otherwise it draws one ``rng.integers(d)`` (the split feature) and then,
  only if that column's min and max differ, one ``rng.uniform(min, max)``
  (the threshold; it raises ``OverflowError`` when ``max - min`` overflows).
"""

from __future__ import annotations

import numpy as np

from repro.ml import native
from repro.ml.flat_tree import FlatForest
from repro.novelty.base import NoveltyDetector
from repro.utils.random import check_random_state
from repro.utils.validation import check_array, check_fitted, check_n_features

__all__ = ["IsolationForest", "average_path_length"]


def average_path_length(n: int | np.ndarray) -> np.ndarray:
    """Expected path length ``c(n)`` of an unsuccessful BST search over ``n`` points."""
    n_arr = np.atleast_1d(np.asarray(n, dtype=np.float64))
    result = np.zeros_like(n_arr)
    mask = n_arr > 2
    harmonic = np.log(n_arr[mask] - 1.0) + np.euler_gamma
    result[mask] = 2.0 * harmonic - 2.0 * (n_arr[mask] - 1.0) / n_arr[mask]
    result[n_arr == 2] = 1.0
    return result


def _grow_tree(
    sub: np.ndarray,
    max_depth: int,
    leaf_length: list[float],
    rng: np.random.Generator,
    nodes: tuple[list, list, list, list],
) -> int:
    """Grow one isolation tree straight into the flat-forest node lists.

    ``sub`` is the tree's ``(d, psi)`` subsample, transposed so every split
    column is contiguous.  Each node is a slice of one index array that is
    partitioned in place, nodes are visited in pre-order (left subtree
    first), and every internal node claims two consecutive slots for its
    children.  Leaves self-loop with a ``+inf`` threshold and carry
    ``depth + c(size)``.  Slots are absolute: the root takes the next free
    one.  Returns the depth of the deepest leaf.
    """
    features, thresholds, children, values = nodes
    n_features, psi = sub.shape
    integers, uniform = rng.integers, rng.uniform
    idx = np.arange(psi)
    root = len(features)
    features.append(0)
    thresholds.append(np.inf)
    children.append(root)
    values.append(0.0)
    tree_depth = 0
    stack = [(root, 0, psi, 0)]
    while stack:
        slot, start, stop, depth = stack.pop()
        size = stop - start
        if depth < max_depth and size > 1:
            feature = int(integers(n_features))
            seg = idx[start:stop]
            column = sub[feature].take(seg)
            lo, hi = np.minimum.reduce(column), np.maximum.reduce(column)
            if lo != hi:
                threshold = float(uniform(lo, hi))
                go_left = column < threshold
                # ``seg`` views ``idx``: gather both halves, then write back.
                left, right = seg[go_left], seg[~go_left]
                middle = start + left.shape[0]
                idx[start:middle] = left
                idx[middle:stop] = right
                first = len(features)
                features[slot] = feature
                thresholds[slot] = threshold
                children[slot] = first
                features += (0, 0)
                thresholds += (np.inf, np.inf)
                children += (first, first + 1)
                values += (0.0, 0.0)
                stack.append((first + 1, middle, stop, depth + 1))
                stack.append((first, start, middle, depth + 1))
                continue
        values[slot] = depth + leaf_length[size]
        tree_depth = max(tree_depth, depth)
    return tree_depth


def _grow_forest(
    X: np.ndarray, n_trees: int, psi: int, rng: np.random.Generator
) -> FlatForest:
    """Grow ``n_trees`` isolation trees on ``psi``-row subsamples of ``X``.

    Each tree grows in C (:class:`repro.ml.native.ITreeGrower`) when the
    native kernels are available, else in :func:`_grow_tree`; both follow
    the module's random-number contract.
    """
    max_depth = int(np.ceil(np.log2(max(psi, 2))))
    leaf_length = average_path_length(np.arange(psi + 1))
    grower = native.itree_grower(rng, X.shape[1], psi, max_depth, leaf_length, n_trees)
    nodes: tuple[list, list, list, list] = ([], [], [], [])
    leaf_list = leaf_length.tolist()
    roots, depths = [], []
    for _ in range(n_trees):
        idx = rng.choice(X.shape[0], psi, replace=False)
        sub = np.ascontiguousarray(X[idx].T)
        if grower is not None:
            roots.append(grower.n_nodes)
            depths.append(grower(sub))
        else:
            roots.append(len(nodes[0]))
            depths.append(_grow_tree(sub, max_depth, leaf_list, rng, nodes))
    features, thresholds, children, values = nodes if grower is None else grower.nodes()
    # Strict "<" comparator, leaf payload = depth + c(size).  Every array
    # owns exactly its nodes: a view would pin the grower's node buffers.
    return FlatForest(
        feature=np.array(features, dtype=np.int32),
        threshold=np.array(thresholds, dtype=np.float64),
        child=np.array(children, dtype=np.int32),
        value=np.asarray(values, dtype=np.float64)[:, None].copy(),
        roots=np.asarray(roots, dtype=np.int64),
        depths=np.asarray(depths, dtype=np.int64),
        strict=True,
    )


class IsolationForest(NoveltyDetector):
    """Ensemble of isolation trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_samples:
        Subsample size per tree (``psi``); capped at the training-set size.
    """

    _snapshot_transient_ = ("_path_norm",)

    def __init__(
        self,
        n_estimators: int = 100,
        max_samples: int = 256,
        *,
        threshold_quantile: float = 0.95,
        random_state: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(threshold_quantile=threshold_quantile)
        if n_estimators < 1 or max_samples < 2:
            raise ValueError("n_estimators must be >= 1 and max_samples >= 2")
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.random_state = random_state
        self.forest_: FlatForest | None = None
        self.subsample_size_: int | None = None
        self.n_features_: int | None = None
        # max(c(psi), 1e-12), the score's normaliser; computed on first score.
        self._path_norm: float | None = None

    def fit(self, X: np.ndarray) -> "IsolationForest":
        return self._fit(X, None)

    def _fit(self, X: np.ndarray, n_threads: int | None) -> "IsolationForest":
        """:meth:`fit`, scoring the training rows on at most ``n_threads``."""
        X = check_array(X, name="X")
        self.n_features_ = X.shape[1]
        rng = check_random_state(self.random_state)
        psi = min(self.max_samples, X.shape[0])
        self.forest_ = _grow_forest(X, self.n_estimators, psi, rng)
        self.subsample_size_ = psi
        self._path_norm = None
        # The default goes through the public method, the one tracers wrap.
        scores = self.score_samples(X) if n_threads is None else self._score_samples(X, n_threads)
        self._set_default_threshold(scores)
        return self

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        return self._score_samples(X, None)

    def _score_samples(self, X: np.ndarray, n_threads: int | None) -> np.ndarray:
        """:meth:`score_samples` with the forest walk capped at ``n_threads``."""
        check_fitted(self, "forest_")
        # No finite scan here: the forest's bind raises check_array's
        # ValueError on a NaN or infinite value, on both backends.
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be a 2-D array, got shape {X.shape}")
        check_n_features(X, self.n_features_, fitted_with="forest was fitted")
        if X.shape[0] == 0:
            return np.empty(0)
        mean_depth = self.forest_.sum_values(X, n_threads)[:, 0] / self.forest_.n_trees
        # Snapshots written before the cache existed lack the attribute.
        norm = getattr(self, "_path_norm", None)
        if norm is None:
            norm = self._path_norm = max(average_path_length(self.subsample_size_)[0], 1e-12)
        return np.power(2.0, -mean_depth / norm)

    def _score_samples_naive(self, X: np.ndarray) -> np.ndarray:
        """Recursive per-tree mask walk, kept for equivalence tests and benchmarks."""
        check_fitted(self, "forest_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.n_features_, fitted_with="forest was fitted")
        if X.shape[0] == 0:
            return np.empty(0)
        forest = self.forest_

        def walk(node: int, rows: np.ndarray, out: np.ndarray) -> None:
            child = int(forest.child[node])
            if child == node:
                out[rows] = forest.value[node, 0]
                return
            go_left = X[rows, forest.feature[node]] < forest.threshold[node]
            if go_left.any():
                walk(child, rows[go_left], out)
            if (~go_left).any():
                walk(child + 1, rows[~go_left], out)

        depths = np.zeros((forest.n_trees, X.shape[0]))
        all_rows = np.arange(X.shape[0])
        for t, root in enumerate(forest.roots):
            walk(int(root), all_rows, depths[t])
        mean_depth = depths.mean(axis=0)
        c = average_path_length(self.subsample_size_)[0]
        return np.power(2.0, -mean_depth / max(c, 1e-12))
