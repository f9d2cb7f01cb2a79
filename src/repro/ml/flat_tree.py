"""Flattened decision-tree arrays with iterative batch traversal.

The supervised trees in this library are grown as linked ``_TreeNode``
objects, which is convenient for construction but forces per-sample Python
recursion at inference time.  :func:`flatten_tree` compiles such a tree once,
at the end of ``fit()``, into a :class:`FlatTree`: five contiguous NumPy arrays
(``feature``, ``threshold``, ``left``, ``right``, ``value``) indexed by node
id.  A :class:`FlatTree` is only the compile-time container: every tree, an
ensemble's or a single one, is walked as a :class:`FlatForest`, all trees'
nodes concatenated into shared arrays with consecutive children
(``right = left + 1``) and self-looping leaves, the layout consumed by the
optional native kernels in :mod:`repro.ml.native`.
:class:`~repro.novelty.iforest.IsolationForest` skips both steps: it grows
its isolation trees straight into this layout and builds the
:class:`FlatForest` directly.

Complexity and memory
---------------------
* ``flatten_tree`` / ``FlatForest.from_flat_trees``: O(n_nodes) time and
  memory, paid once per fit.
* ``FlatForest.sum_values``/``apply``: O(n_samples x depth x n_trees) node
  steps; with the native kernel each step is ~2 loads, otherwise it runs as
  ``depth`` NumPy passes per tree.  Peak extra memory is O(n_samples x
  n_trees) ids for ``apply`` and O(n_samples) for ``sum_values``.

Both the native and the NumPy backend parallelize large batches over
contiguous *row blocks* (OpenMP in the kernel, the shared thread pool of
:mod:`repro.ml.parallel` here).  Every block computes exactly what the
sequential walk computes for those rows — per-row accumulation order over
trees never changes — so results are bit-identical for any
``REPRO_NUM_THREADS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.ml import native
from repro.ml.parallel import run_row_blocks

__all__ = ["FlatTree", "FlatForest", "flatten_tree"]


@dataclass
class FlatTree:
    """A fitted binary decision tree compiled to flat arrays.

    Attributes
    ----------
    feature:
        ``(n_nodes,)`` split-feature index per node; ``-1`` at leaves.
    threshold:
        ``(n_nodes,)`` split threshold per node (unused at leaves).
    left, right:
        ``(n_nodes,)`` child node ids; ``-1`` at leaves.
    value:
        ``(n_nodes, value_dim)`` leaf payloads; only leaf rows are ever
        gathered.
    strict:
        When ``False`` (CART convention) a row goes left iff
        ``x[feature] <= threshold``; when ``True`` (isolation-tree
        convention) iff ``x[feature] < threshold``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    strict: bool = False

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])


def flatten_tree(
    root: object,
    node_value: Callable[[object, int], np.ndarray | float],
    *,
    strict: bool = False,
) -> FlatTree:
    """Compile a linked node tree into a :class:`FlatTree`.

    Parameters
    ----------
    root:
        Root node; nodes must expose ``feature``, ``threshold``, ``left``,
        ``right`` and an ``is_leaf`` property.
    node_value:
        ``node_value(node, depth) -> scalar or 1-D array`` payload stored for
        every node; all payloads must share one length.  Only leaf payloads
        are observable through :meth:`FlatTree.predict`.
    strict:
        Comparator convention, see :class:`FlatTree`.
    """
    features: list[int] = []
    thresholds: list[float] = []
    lefts: list[int] = []
    rights: list[int] = []
    values: list[np.ndarray] = []

    def _add(node: object, depth: int) -> int:
        index = len(features)
        features.append(-1 if node.is_leaf else int(node.feature))
        thresholds.append(float(node.threshold))
        lefts.append(-1)
        rights.append(-1)
        values.append(
            np.atleast_1d(np.asarray(node_value(node, depth), dtype=np.float64))
        )
        if not node.is_leaf:
            lefts[index] = _add(node.left, depth + 1)
            rights[index] = _add(node.right, depth + 1)
        return index

    _add(root, 0)
    return FlatTree(
        feature=np.asarray(features, dtype=np.int64),
        threshold=np.asarray(thresholds, dtype=np.float64),
        left=np.asarray(lefts, dtype=np.int64),
        right=np.asarray(rights, dtype=np.int64),
        value=np.vstack(values),
        strict=strict,
    )


class FlatForest:
    """A tree ensemble compiled for batch traversal (native kernel friendly).

    All trees live in shared concatenated arrays.  Node ids are absolute;
    every internal node's children occupy consecutive slots (``left = child``,
    ``right = child + 1``) and every leaf *self-loops* with a ``+inf``
    threshold, so walking a row is simply ``depth`` repetitions of
    ``node = child[node] + (x[feature[node]] OP threshold[node])`` with no
    leaf test — branch-free, and eight rows are interleaved by the native
    kernel to overlap the dependent load chains.

    The self-looping-leaf trick relies on every comparison against the
    ``+inf`` leaf threshold being false, which only holds for *finite*
    feature values; :meth:`apply` and :meth:`sum_values` therefore reject
    non-finite input (every detector already does, via ``check_array``).

    Use :meth:`from_flat_trees` to build one; traversal automatically uses
    the compiled kernels from :mod:`repro.ml.native` when available and falls
    back to per-tree NumPy passes otherwise.  The kernels are bound to the
    node arrays on first use (a :class:`~repro.ml.native.ForestKernel`, kept
    out of snapshots) and re-bound when one of the arrays is replaced.  On
    both backends an ``X`` narrower than the highest split feature raises
    ``ValueError``.
    """

    _snapshot_transient_ = ("_kernel", "_value_flat")

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        child: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
        depths: np.ndarray,
        strict: bool,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.child = child
        self.value = value
        self.roots = roots
        self.depths = depths
        self.strict = strict
        # Contiguous scalar payload for the native sum kernel, derived from
        # ``value`` by ``_bound`` and never persisted.
        self._value_flat: np.ndarray | None = None
        self._kernel: native.ForestKernel | None = None

    @property
    def n_trees(self) -> int:
        return int(self.roots.shape[0])

    @property
    def value_dim(self) -> int:
        return int(self.value.shape[1])

    @classmethod
    def from_flat_trees(cls, trees: Sequence[FlatTree]) -> "FlatForest":
        """Compile :class:`FlatTree` instances into one traversal-ready forest.

        All trees must share the comparator convention and payload width.
        """
        if not trees:
            raise ValueError("at least one tree is required")
        strict = trees[0].strict
        value_dim = trees[0].value.shape[1]
        features: list[np.ndarray] = []
        thresholds: list[np.ndarray] = []
        children: list[np.ndarray] = []
        values: list[np.ndarray] = []
        roots: list[int] = []
        depths: list[int] = []
        offset = 0
        for tree in trees:
            if tree.strict != strict or tree.value.shape[1] != value_dim:
                raise ValueError("trees must share comparator and payload width")
            n_nodes = tree.n_nodes
            feature = np.zeros(n_nodes, dtype=np.int32)
            threshold = np.empty(n_nodes, dtype=np.float64)
            child = np.empty(n_nodes, dtype=np.int32)
            value = np.zeros((n_nodes, value_dim), dtype=np.float64)
            # Renumber so siblings are consecutive; leaves self-loop.
            old_to_new = {0: 0}
            stack: list[tuple[int, int]] = [(0, 0)]
            next_free = 1
            max_depth = 0
            while stack:
                old, depth = stack.pop()
                new = old_to_new[old]
                if tree.left[old] < 0:
                    threshold[new] = np.inf
                    child[new] = new + offset
                    value[new] = tree.value[old]
                    max_depth = max(max_depth, depth)
                else:
                    left, right = int(tree.left[old]), int(tree.right[old])
                    old_to_new[left] = next_free
                    old_to_new[right] = next_free + 1
                    feature[new] = tree.feature[old]
                    threshold[new] = tree.threshold[old]
                    child[new] = next_free + offset
                    next_free += 2
                    stack.append((left, depth + 1))
                    stack.append((right, depth + 1))
            features.append(feature)
            thresholds.append(threshold)
            children.append(child)
            values.append(value)
            roots.append(offset)
            depths.append(max_depth)
            offset += n_nodes
        return cls(
            feature=np.concatenate(features),
            threshold=np.concatenate(thresholds),
            child=np.concatenate(children),
            value=np.vstack(values),
            roots=np.asarray(roots, dtype=np.int64),
            depths=np.asarray(depths, dtype=np.int64),
            strict=strict,
        )

    # -- traversal -----------------------------------------------------------
    def _bound(self, X: np.ndarray) -> tuple[np.ndarray, native.ForestKernel]:
        """``X`` as C-contiguous float64, and the kernel bound to this forest."""
        # A non-finite feature value would compare against the +inf leaf
        # threshold and walk out of a self-looping leaf into foreign nodes.
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains NaN or infinite values")
        # Loaded and cloned forests come back with ``_value_flat`` as None.
        value_flat = self._value_flat
        if value_flat is None and self.value_dim == 1:
            value_flat = self._value_flat = np.ascontiguousarray(self.value[:, 0])
        arrays = (
            self.feature, self.threshold, self.child, value_flat,
            self.roots, self.depths,
        )
        # Snapshots written before the binding existed lack the attribute.
        kernel = getattr(self, "_kernel", None)
        if kernel is None or not kernel.binds(arrays, self.strict):
            kernel = self._kernel = native.ForestKernel(*arrays, self.strict)
        return np.ascontiguousarray(X, dtype=np.float64), kernel

    def apply(self, X: np.ndarray) -> np.ndarray:
        """``(n_trees, n_samples)`` absolute leaf ids for every row of ``X``."""
        if X.shape[0] == 0:
            return np.empty((self.n_trees, 0), dtype=np.int64)
        X, kernel = self._bound(X)
        leaves = native.forest_apply(X, kernel)
        if leaves is not None:
            return leaves.astype(np.int64, copy=False)
        return self._apply_numpy(X)

    def sum_values(self, X: np.ndarray, n_threads: int | None = None) -> np.ndarray:
        """``(n_samples, value_dim)`` sum of leaf payloads over all trees.

        ``n_threads`` caps the native walk's threads (``None`` reads
        ``REPRO_NUM_THREADS``); any value gives the same bits.
        """
        n = X.shape[0]
        if n == 0:
            return np.zeros((0, self.value_dim))
        if self.value_dim == 1:
            X, kernel = self._bound(X)
            total = native.forest_sum(X, kernel, n_threads)
            if total is not None:
                return total[:, None]
        # Multi-payload fallback: walk with apply() (native kernel or threaded
        # NumPy) and accumulate tree by tree, so peak extra memory stays
        # O(n x value_dim) plus the leaf ids, instead of a
        # (n_trees, n, value_dim) gather.  Row blocks are independent and
        # accumulate trees in the same order, so the threaded accumulation is
        # bit-identical to the sequential one.
        leaves = self.apply(X)
        out = np.zeros((n, self.value_dim))

        def _sum_block(start: int, stop: int) -> None:
            block_out = out[start:stop]
            for t in range(self.n_trees):
                block_out += self.value[leaves[t, start:stop]]

        run_row_blocks(_sum_block, n)
        return out

    def _walk_rows(self, X: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Fixed-depth self-loop walk of rows ``[start, stop)``, per tree."""
        block = X[start:stop]
        n = block.shape[0]
        rows = np.arange(n)
        leaves = np.empty((self.n_trees, n), dtype=np.int64)
        for t in range(self.n_trees):
            node = np.full(n, self.roots[t], dtype=np.int64)
            for _ in range(int(self.depths[t])):
                column = block[rows, self.feature[node]]
                if self.strict:
                    go_right = column >= self.threshold[node]
                else:
                    go_right = column > self.threshold[node]
                node = self.child[node] + go_right
            leaves[t] = node
        return leaves

    def _apply_numpy(self, X: np.ndarray) -> np.ndarray:
        """NumPy fallback: self-loop walk over threaded row blocks."""
        n = X.shape[0]
        leaves = np.empty((self.n_trees, n), dtype=np.int64)

        def _apply_block(start: int, stop: int) -> None:
            leaves[:, start:stop] = self._walk_rows(X, start, stop)

        run_row_blocks(_apply_block, n)
        return leaves
