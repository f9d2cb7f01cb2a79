"""Pairwise distance computations used by K-Means, LOF, ADCN/LwF and triplet mining."""

from __future__ import annotations

import numpy as np

__all__ = ["pairwise_euclidean", "pairwise_squared_euclidean", "pairwise_topk"]


def _validated_pair(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("A and B must be 2-D arrays")
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"feature dimensions differ: A has {A.shape[1]}, B has {B.shape[1]}"
        )
    return A, B


def pairwise_squared_euclidean(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every row of ``A`` and every row of ``B``.

    Returns an ``(len(A), len(B))`` matrix.  Uses the expansion
    ``||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b`` and clips tiny negatives caused
    by floating-point cancellation.
    """
    A, B = _validated_pair(A, B)
    sq_a = np.sum(A**2, axis=1)[:, None]
    sq_b = np.sum(B**2, axis=1)[None, :]
    d2 = sq_a + sq_b - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def pairwise_topk(
    A: np.ndarray,
    B: np.ndarray,
    k: int,
    *,
    block_size: int = 1024,
    exclude_self: bool = False,
    squared: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the ``k`` nearest rows of ``B`` per row of ``A``.

    The distance block is computed blockwise over the rows of ``A`` so peak
    extra memory is O(``block_size`` x ``len(B)``) floats (plus the
    ``(len(A), k)`` outputs) instead of the O(``len(A)`` x ``len(B)``) full
    matrix.  Within a block the ``k`` smallest entries per row are selected
    with ``np.argpartition`` — O(``len(B)``) per row — and only those ``k``
    are sorted, so the per-row cost is O(``len(B)`` + ``k`` log ``k``) rather
    than the O(``len(B)`` log ``len(B)``) of a full ``argsort``.  The blocks
    run one after another on the calling thread; BLAS threads each block's
    product on its own.

    Parameters
    ----------
    A, B:
        ``(n, d)`` query rows and ``(m, d)`` reference rows.
    k:
        Number of neighbours; ``1 <= k <= m`` (``m - 1`` with
        ``exclude_self``).
    block_size:
        Number of query rows processed per block.
    exclude_self:
        When ``A`` *is* ``B`` (same rows, same order), exclude the trivial
        zero-distance self match of every row.
    squared:
        Return squared Euclidean distances instead of Euclidean ones.

    Returns
    -------
    (indices, distances):
        Two ``(len(A), k)`` arrays, sorted by increasing distance per row.
    """
    A, B = _validated_pair(A, B)
    m = B.shape[0]
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    if exclude_self and A.shape[0] != m:
        raise ValueError("exclude_self requires A and B to have the same rows")
    max_k = m - 1 if exclude_self else m
    if not 1 <= k <= max_k:
        raise ValueError(f"k must be in [1, {max_k}], got {k}")

    n = A.shape[0]
    sq_b = np.sum(B**2, axis=1)[None, :]
    out_idx = np.empty((n, k), dtype=np.int64)
    out_dist = np.empty((n, k), dtype=np.float64)

    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block = A[start:stop]
        d2 = np.sum(block**2, axis=1)[:, None] + sq_b - 2.0 * (block @ B.T)
        np.maximum(d2, 0.0, out=d2)
        if exclude_self:
            d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        if k == 1:
            # argmin keeps the first-occurrence tie-break of a plain argmin.
            idx = d2.argmin(axis=1)
            out_idx[start:stop, 0] = idx
            out_dist[start:stop, 0] = d2[np.arange(stop - start), idx]
        elif k < m:
            part = np.argpartition(d2, k - 1, axis=1)[:, :k]
            part_dist = np.take_along_axis(d2, part, axis=1)
            order = np.argsort(part_dist, axis=1)
            out_idx[start:stop] = np.take_along_axis(part, order, axis=1)
            out_dist[start:stop] = np.take_along_axis(part_dist, order, axis=1)
        else:
            order = np.argsort(d2, axis=1)
            out_idx[start:stop] = order
            out_dist[start:stop] = np.take_along_axis(d2, order, axis=1)
    if not squared:
        np.sqrt(out_dist, out=out_dist)
    return out_idx, out_dist


def pairwise_euclidean(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances between every row of ``A`` and every row of ``B``."""
    return np.sqrt(pairwise_squared_euclidean(A, B))
