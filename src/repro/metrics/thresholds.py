"""Anomaly-score thresholding rules.

The paper converts PCA reconstruction scores into attack/normal predictions
with the widely used Best-F rule (Su et al., KDD 2019): pick the threshold
that maximises the F1 score on the evaluated batch.  A label-free quantile
rule is also provided for deployments without any labels.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_binary_labels, check_consistent_length

__all__ = ["best_f_threshold", "quantile_threshold"]


def best_f_threshold(
    scores: np.ndarray,
    y_true: np.ndarray,
    *,
    beta: float = 1.0,
    n_candidates: int | None = None,
) -> tuple[float, float]:
    """Select the score threshold that maximises the F-beta score.

    Parameters
    ----------
    scores:
        Anomaly scores (higher means more anomalous).
    y_true:
        Binary ground-truth labels for the same samples.
    beta:
        F-beta parameter (1.0 reproduces the paper's Best-F rule).
    n_candidates:
        Optionally subsample the candidate thresholds (evenly over the sorted
        unique scores) to bound the search cost on very large batches.

    Returns
    -------
    (threshold, best_f):
        The selected threshold and the F-beta value it achieves.  Predictions
        are intended as ``scores > threshold``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
    y_true = check_binary_labels(y_true, name="y_true")
    check_consistent_length(scores, y_true)
    if beta <= 0:
        raise ValueError("beta must be positive")

    n_positive = int(y_true.sum())
    if n_positive == 0:
        # No attacks present: predicting nothing positive is optimal.
        return float(scores.max()), 0.0

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = y_true[order].astype(np.float64)

    # Cumulative tp/fp when predicting positive for the top-k scores.
    tps = np.cumsum(sorted_labels)
    fps = np.arange(1, scores.size + 1) - tps
    precision = tps / (tps + fps)
    recall = tps / n_positive
    beta2 = beta**2
    denom = beta2 * precision + recall
    f_scores = np.divide(
        (1 + beta2) * precision * recall, denom, out=np.zeros_like(denom), where=denom > 0
    )

    # Only cut points at the end of ties are valid thresholds.
    if scores.size > 1:
        valid = np.concatenate([np.diff(sorted_scores) != 0.0, [True]])
    else:
        valid = np.array([True])
    candidate_idx = np.flatnonzero(valid)
    if n_candidates is not None and candidate_idx.size > n_candidates:
        picks = np.linspace(0, candidate_idx.size - 1, n_candidates).astype(int)
        candidate_idx = candidate_idx[picks]

    best_pos = candidate_idx[np.argmax(f_scores[candidate_idx])]
    best_f = float(f_scores[best_pos])
    cut_score = sorted_scores[best_pos]
    # Threshold is placed so that `scores > tau` selects exactly the top block.
    below = sorted_scores[sorted_scores < cut_score]
    if below.size:
        tau = float((cut_score + below.max()) / 2.0)
    else:
        tau = float(cut_score - 1e-12 - abs(cut_score) * 1e-12)
    return tau, best_f


def quantile_threshold(scores: np.ndarray, quantile: float = 0.95) -> float:
    """Label-free threshold at the given quantile of the score distribution.

    Equal bit for bit to ``float(np.quantile(scores, quantile))`` (method
    ``"linear"``), without its per-call Python layer: one partition places
    the two order statistics around NumPy's virtual index ``(n-1)*quantile``,
    and NumPy's ``_lerp`` blends them.  The partition takes NumPy's own
    positions (those two, the first and the last), so even ``-0.0`` and
    ``0.0``, which compare equal, land where NumPy puts them.  A NaN sorts
    last and makes the threshold NaN, as in NumPy.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
    if scores.size == 0:
        raise ValueError("scores must not be empty")
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be strictly between 0 and 1")
    n = scores.size
    index = (n - 1) * quantile  # below n - 1 whenever n > 1, as quantile < 1
    lo = int(index)
    hi = min(lo + 1, n - 1)
    # NumPy reads a single score as index -1, so its weight is then 1, not 0.
    gamma = index - lo if n > 1 else 1.0
    ordered = np.partition(scores, sorted({0, lo, hi, n - 1}))
    if np.isnan(ordered[n - 1]):
        return float(ordered[n - 1])
    a, b = ordered[lo], ordered[hi]
    diff = b - a
    return float(b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma)
