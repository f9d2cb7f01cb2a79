"""K-Means clustering (k-means++ initialisation, Lloyd iterations) and the elbow method.

The cluster-separation loss of CND-IDS uses K-Means over the training batch to
assign binary pseudo-labels, and the paper selects the number of clusters with
the elbow method.
"""

from __future__ import annotations

import numpy as np

from repro.ml import native
from repro.ml.distances import pairwise_squared_euclidean
from repro.utils.random import check_random_state
from repro.utils.validation import check_array, check_fitted

__all__ = ["KMeans", "elbow_method"]


def _squared_distances_to(X: np.ndarray, sq_x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """``pairwise_squared_euclidean(X, center).ravel()`` for one ``(1, d)`` centre,
    reusing the squared row norms ``sq_x`` of ``X`` (the same bits)."""
    d2 = sq_x[:, None] + np.sum(center**2, axis=1)[None, :] - 2.0 * (X @ center.T)
    np.maximum(d2, 0.0, out=d2)
    return d2.ravel()


class KMeans:
    """Lloyd's K-Means with k-means++ initialisation.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``K``.
    n_init:
        Number of random restarts; the run with the lowest inertia wins.
    max_iter:
        Maximum Lloyd iterations per restart.
    tol:
        Relative centre-movement tolerance for convergence.
    block_size:
        Cluster assignment processes samples in blocks of this many rows, so
        peak extra memory is O(``block_size`` x n_clusters) floats.
    """

    def __init__(
        self,
        n_clusters: int = 8,
        *,
        n_init: int = 3,
        max_iter: int = 100,
        tol: float = 1e-4,
        block_size: int = 4096,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        if n_init < 1 or max_iter < 1:
            raise ValueError("n_init and max_iter must be at least 1")
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.block_size = block_size
        self.random_state = random_state
        self.cluster_centers_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float | None = None
        self.n_iter_: int | None = None

    # -- initialisation ------------------------------------------------------
    def _init_centers(
        self, X: np.ndarray, sq_x: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        n_samples = X.shape[0]
        centers = np.empty((self.n_clusters, X.shape[1]), dtype=np.float64)
        first = int(rng.integers(n_samples))
        centers[0] = X[first]
        closest_sq = _squared_distances_to(X, sq_x, centers[:1])
        for k in range(1, self.n_clusters):
            total = closest_sq.sum()
            if total <= 0.0:
                # All points coincide with chosen centers; pick randomly.
                idx = int(rng.integers(n_samples))
            else:
                probabilities = closest_sq / total
                idx = int(rng.choice(n_samples, p=probabilities))
            centers[k] = X[idx]
            new_sq = _squared_distances_to(X, sq_x, centers[k : k + 1])
            np.minimum(closest_sq, new_sq, out=closest_sq)
        return centers

    # -- fitting ----------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "KMeans":
        X = check_array(X, name="X")
        if X.shape[0] < self.n_clusters:
            raise ValueError(
                f"n_samples={X.shape[0]} must be >= n_clusters={self.n_clusters}"
            )
        rng = check_random_state(self.random_state)
        best_inertia = np.inf
        best: tuple[np.ndarray, np.ndarray, int] | None = None
        sq_x = np.sum(X**2, axis=1)
        for _ in range(self.n_init):
            centers, labels, inertia, n_iter = self._single_run(X, sq_x, rng)
            if inertia < best_inertia:
                best_inertia = inertia
                best = (centers, labels, n_iter)
        assert best is not None
        self.cluster_centers_, self.labels_, self.n_iter_ = best
        self.inertia_ = float(best_inertia)
        return self

    def _assign(
        self,
        X: np.ndarray,
        sq_x: np.ndarray,
        centers: np.ndarray,
        kernel: native.KMeansAssign | None,
        *,
        cluster_sums: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
        """Nearest-centre label and squared distance per sample, blockwise.

        ``sq_x`` holds the squared row norms of ``X``.  Each block of
        ``block_size`` rows takes one gemm, ``X[start:stop] @ centers.T``;
        the distance block ``(||x||^2 + ||c||^2) - 2 x.c`` is clipped at 0,
        and ties go to the lowest centre index (a NaN distance wins, as in
        ``argmin``).

        ``kernel`` is the native ``kmeans_assign`` kernel bound to ``X``
        (:func:`repro.ml.native.kmeans_assign`), or ``None`` for the NumPy
        passes.  The kernel makes every pass after the gemm in one loop over
        the rows, with the NumPy passes' IEEE operations, so labels and
        distances are the same bits on both paths.  With ``cluster_sums`` it
        also returns each cluster's row sum and member count, added in index
        order from +0.0: the same bits as one ``np.bincount`` per feature.
        Without the kernel that third item is ``None``, and
        :meth:`_update_centers` sums the clusters itself.
        """
        n = X.shape[0]
        if kernel is not None:
            labels, nearest_sq = kernel.labels, kernel.nearest_sq
        else:
            labels = np.empty(n, dtype=np.int64)
            nearest_sq = np.empty(n, dtype=np.float64)
        sq_c = np.sum(centers**2, axis=1)
        for start in range(0, n, self.block_size):
            stop = min(start + self.block_size, n)
            G = X[start:stop] @ centers.T
            if kernel is not None:
                kernel(start, G, sq_c, cluster_sums)
                continue
            d2 = sq_x[start:stop, None] + sq_c[None, :] - 2.0 * G
            np.maximum(d2, 0.0, out=d2)
            idx = d2.argmin(axis=1)
            labels[start:stop] = idx
            nearest_sq[start:stop] = d2[np.arange(stop - start), idx]
        if kernel is None or not cluster_sums:
            return labels, nearest_sq, None
        return labels, nearest_sq, (kernel.sums, kernel.counts)

    def _update_centers(
        self,
        X: np.ndarray,
        labels: np.ndarray,
        nearest_sq: np.ndarray,
        centers: np.ndarray,
        cluster_sums: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Mean of each cluster's members; empty clusters are re-seeded.

        ``cluster_sums`` is the ``(sums, counts)`` pair :meth:`_assign`
        returns from the native kernel.  Without it, NumPy gathers each
        cluster's rows; either way each cluster's rows are summed in index
        order from +0.0, the same additions a per-feature ``np.bincount``
        makes, so the centres match a bincount accumulation bit for bit.
        """
        k = self.n_clusters
        if cluster_sums is not None:
            sums, counts = cluster_sums
        else:
            counts = np.bincount(labels, minlength=k)
            if X.shape[1] == 1:
                # NumPy would sum a lone column pairwise; bincount keeps index order.
                sums = np.bincount(labels, weights=X[:, 0], minlength=k)[:, None]
            else:
                sums = np.stack([X[labels == c].sum(axis=0) for c in range(k)])
        new_centers = centers.copy()
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            # Re-seed empty clusters at the point farthest from its centre.
            new_centers[~nonempty] = X[nearest_sq.argmax()]
        return new_centers

    def _single_run(
        self, X: np.ndarray, sq_x: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, float, int]:
        centers = self._init_centers(X, sq_x, rng)
        kernel = native.kmeans_assign(X, sq_x, self.n_clusters)
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            labels, nearest_sq, sums = self._assign(
                X, sq_x, centers, kernel, cluster_sums=True
            )
            new_centers = self._update_centers(X, labels, nearest_sq, centers, sums)
            shift = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max()
            centers = new_centers
            if shift <= self.tol:
                break
        labels, nearest_sq, _ = self._assign(X, sq_x, centers, kernel)
        inertia = float(nearest_sq.sum())
        return centers, labels, inertia, n_iter

    # -- inference ---------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Assign each sample to the nearest fitted cluster centre."""
        check_fitted(self, "cluster_centers_")
        X = check_array(X, name="X", allow_empty=True)
        if X.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        sq_x = np.sum(X**2, axis=1)
        kernel = native.kmeans_assign(X, sq_x, self.cluster_centers_.shape[0])
        return self._assign(X, sq_x, self.cluster_centers_, kernel)[0]

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Distances from each sample to every cluster centre."""
        check_fitted(self, "cluster_centers_")
        X = check_array(X, name="X", allow_empty=True)
        return np.sqrt(pairwise_squared_euclidean(X, self.cluster_centers_))

    def fit_predict(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).labels_


def elbow_method(
    X: np.ndarray,
    k_range: range | list[int] = range(2, 11),
    *,
    random_state: int | np.random.Generator | None = None,
    n_init: int = 2,
    max_iter: int = 50,
) -> int:
    """Choose the number of clusters by the elbow (maximum curvature) criterion.

    Fits K-Means for every ``k`` in ``k_range`` and returns the ``k`` whose
    point on the inertia curve is farthest from the straight line joining the
    first and last points — a standard numerical formulation of the elbow
    heuristic the paper cites.
    """
    X = check_array(X, name="X")
    ks = [int(k) for k in k_range]
    if len(ks) == 0:
        raise ValueError("k_range must contain at least one value")
    ks = [k for k in ks if k <= X.shape[0]]
    if not ks:
        return 1
    if len(ks) == 1:
        return ks[0]
    rng = check_random_state(random_state)
    inertias = []
    for k in ks:
        model = KMeans(
            n_clusters=k, n_init=n_init, max_iter=max_iter, random_state=rng
        ).fit(X)
        inertias.append(model.inertia_)
    inertias_arr = np.asarray(inertias, dtype=np.float64)

    # Distance of every (k, inertia) point from the chord between endpoints.
    x = np.asarray(ks, dtype=np.float64)
    y = inertias_arr
    x_norm = (x - x[0]) / max(x[-1] - x[0], 1e-12)
    y_span = max(abs(y[0] - y[-1]), 1e-12)
    y_norm = (y - y[-1]) / y_span
    # Chord from (0, y_norm[0]) to (1, 0): distance of each point to it.
    x0, y0 = 0.0, y_norm[0]
    x1, y1 = 1.0, 0.0
    numerator = np.abs((y1 - y0) * x_norm - (x1 - x0) * y_norm + x1 * y0 - y1 * x0)
    denominator = np.sqrt((y1 - y0) ** 2 + (x1 - x0) ** 2)
    distances = numerator / denominator
    return ks[int(distances.argmax())]
