"""Loss functions.

Every loss exposes ``__call__(prediction, target) -> (value, grad)`` where
``grad`` is the gradient of the (mean-reduced) loss with respect to the
prediction.  The triplet margin loss used by the paper's cluster-separation
objective additionally performs in-batch triplet mining from pseudo-labels.
"""

from __future__ import annotations

import numpy as np

from repro.utils.random import check_random_state

__all__ = [
    "MSELoss",
    "BCELoss",
    "SoftmaxCrossEntropyLoss",
    "TripletMarginLoss",
]


class MSELoss:
    """Mean squared error ``mean((pred - target)^2)``."""

    def __call__(
        self, prediction: np.ndarray, target: np.ndarray
    ) -> tuple[float, np.ndarray]:
        prediction = np.asarray(prediction, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if prediction.shape != target.shape:
            raise ValueError(
                f"prediction shape {prediction.shape} != target shape {target.shape}"
            )
        diff = prediction - target
        value = float(np.mean(diff**2))
        grad = 2.0 * diff / diff.size
        return value, grad


class BCELoss:
    """Binary cross-entropy on probabilities in (0, 1)."""

    def __init__(self, eps: float = 1e-12) -> None:
        self.eps = eps

    def __call__(
        self, prediction: np.ndarray, target: np.ndarray
    ) -> tuple[float, np.ndarray]:
        prediction = np.asarray(prediction, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if prediction.shape != target.shape:
            raise ValueError(
                f"prediction shape {prediction.shape} != target shape {target.shape}"
            )
        p = np.clip(prediction, self.eps, 1.0 - self.eps)
        value = float(np.mean(-(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))))
        grad = (p - target) / (p * (1.0 - p)) / p.size
        return value, grad


class SoftmaxCrossEntropyLoss:
    """Softmax + cross-entropy on raw logits with integer class targets."""

    def __call__(
        self, logits: np.ndarray, target: np.ndarray
    ) -> tuple[float, np.ndarray]:
        logits = np.asarray(logits, dtype=np.float64)
        target = np.asarray(target)
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
        if target.ndim != 1 or target.shape[0] != logits.shape[0]:
            raise ValueError("target must be 1-D with one class index per row of logits")
        n, n_classes = logits.shape
        target = target.astype(np.int64)
        if target.min() < 0 or target.max() >= n_classes:
            raise ValueError("target class indices out of range")
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
        value = float(-np.mean(log_probs[np.arange(n), target]))
        grad = probs.copy()
        grad[np.arange(n), target] -= 1.0
        grad /= n
        return value, grad

    @staticmethod
    def predict_proba(logits: np.ndarray) -> np.ndarray:
        """Convert raw logits to softmax probabilities."""
        logits = np.asarray(logits, dtype=np.float64)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)


class TripletMarginLoss:
    """Triplet margin loss with in-batch mining from (pseudo-)labels.

    The paper assigns binary pseudo-labels via K-Means (cluster-separation
    loss, Eq. 2) and then maximises the margin between anchor-positive and
    anchor-negative Euclidean distances:

    ``L = max(d(a, p) - d(a, n) + margin, 0)``

    ``__call__`` expects a batch of embeddings and per-sample labels, mines a
    set of (anchor, positive, negative) triplets, and returns the mean loss
    together with its gradient with respect to the embedding batch.
    """

    def __init__(
        self,
        margin: float = 1.0,
        *,
        triplets_per_anchor: int = 1,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        if margin <= 0:
            raise ValueError("margin must be positive")
        if triplets_per_anchor < 1:
            raise ValueError("triplets_per_anchor must be at least 1")
        self.margin = margin
        self.triplets_per_anchor = triplets_per_anchor
        self._rng = check_random_state(random_state)

    # -- triplet mining -------------------------------------------------
    def mine_triplets(self, labels: np.ndarray) -> np.ndarray:
        """Return an array of (anchor, positive, negative) index triplets.

        Uses random sampling: for every sample whose class has at least two
        members and whose complement is non-empty, draw
        ``triplets_per_anchor`` random positives and negatives.  Returns an
        empty ``(0, 3)`` array when no valid triplet exists (e.g. a single
        pseudo-class in the batch).

        RNG contract: one ``integers`` draw per positive and per negative, in
        anchor order (positive, negative, positive, negative, ...), each
        uniform over the anchor's positives (in index order, the anchor
        excluded) or its negatives (in index order).  These are the draws of
        one ``choice`` call per positive and per negative, so a seeded
        generator yields the same triplets and ends in the same state as a
        per-anchor sampling loop.
        """
        labels = np.asarray(labels)
        n = labels.shape[0]
        _, class_of, sizes = np.unique(labels, return_inverse=True, return_counts=True)
        if sizes.size < 2:
            return np.empty((0, 3), dtype=np.int64)
        # Stable sort: class c is the run order[starts[c]:starts[c] + sizes[c]]
        # of its member indices, increasing; slot is a position within its
        # run and rank maps a sample to its slot.
        order = np.argsort(class_of, kind="stable")
        starts = np.cumsum(sizes) - sizes
        run_class = np.repeat(np.arange(sizes.size), sizes)
        slot = np.arange(n) - starts[run_class]
        rank = np.empty(n, dtype=np.int64)
        rank[order] = slot

        anchors = np.repeat(np.flatnonzero(sizes[class_of] > 1), self.triplets_per_anchor)
        if anchors.size == 0:
            return np.empty((0, 3), dtype=np.int64)
        cls = class_of[anchors]
        highs = np.stack([sizes[cls] - 1, n - sizes[cls]], axis=1)
        pos_draw, neg_draw = self._rng.integers(0, highs).T

        # j-th positive: the j-th member of the run, stepping over the anchor.
        positives = order[starts[cls] + pos_draw + (pos_draw >= rank[anchors])]
        # j-th negative: a class's member m_i (slot i) has m_i - i non-members
        # before it, so the j-th non-member is j plus the number of members
        # with m_i - i <= j.  Offsetting class c by c * (n + 1) turns the
        # per-class counts into one searchsorted over all runs.
        gaps = order - slot + run_class * (n + 1)
        negatives = neg_draw + (
            np.searchsorted(gaps, neg_draw + cls * (n + 1), side="right") - starts[cls]
        )
        return np.stack([anchors, positives, negatives], axis=1)

    # -- loss ------------------------------------------------------------
    def __call__(
        self, embeddings: np.ndarray, labels: np.ndarray
    ) -> tuple[float, np.ndarray]:
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.ndim != 2:
            raise ValueError(f"embeddings must be 2-D, got shape {embeddings.shape}")
        if labels.shape[0] != embeddings.shape[0]:
            raise ValueError("labels must have one entry per embedding")
        grad = np.zeros_like(embeddings)
        triplets = self.mine_triplets(labels)
        if triplets.shape[0] == 0:
            return 0.0, grad
        anchors = embeddings[triplets[:, 0]]
        positives = embeddings[triplets[:, 1]]
        negatives = embeddings[triplets[:, 2]]

        diff_ap = anchors - positives
        diff_an = anchors - negatives
        dist_ap = np.sqrt(np.sum(diff_ap**2, axis=1) + 1e-12)
        dist_an = np.sqrt(np.sum(diff_an**2, axis=1) + 1e-12)
        losses = dist_ap - dist_an + self.margin
        active = losses > 0.0
        value = float(np.mean(np.where(active, losses, 0.0)))
        if not np.any(active):
            return value, grad

        n_triplets = triplets.shape[0]
        # d/d_anchor = (a-p)/d_ap - (a-n)/d_an for active triplets
        unit_ap = diff_ap / dist_ap[:, None]
        unit_an = diff_an / dist_an[:, None]
        scale = active.astype(np.float64)[:, None] / n_triplets
        grad_anchor = (unit_ap - unit_an) * scale
        grad_positive = -unit_ap * scale
        grad_negative = unit_an * scale
        np.add.at(grad, triplets[:, 0], grad_anchor)
        np.add.at(grad, triplets[:, 1], grad_positive)
        np.add.at(grad, triplets[:, 2], grad_negative)
        return value, grad
