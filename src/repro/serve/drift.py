"""Distribution-shift monitoring from rolling score and feature statistics.

The monitor compares a *reference* distribution (training-time anomaly scores
and feature means, or the first samples of the stream when no reference is
given) against rolling statistics of the most recent window.  Shift is
measured in units of the reference standard deviation::

    score_shift   = |rolling_mean(scores) - ref_mean| / ref_std
    feature_shift = max_j |rolling_mean(x_j) - ref_mean_j| / ref_std_j

Both are cheap to maintain (two ring buffers, O(window) memory) and scale-free,
so one threshold works across detectors whose score ranges differ by orders of
magnitude.  When either shift exceeds ``threshold`` the monitor reports drift
and then stays silent for ``cooldown`` updates, giving the operator (or the
service's refit hook) time to react before re-alerting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DriftMonitor", "DriftReport"]


class _RingBuffer:
    """Fixed-capacity rolling window over a stream of rows (bounded memory)."""

    def __init__(self, capacity: int, width: int) -> None:
        self._data = np.empty((capacity, width))
        self._next = 0
        self.count = 0

    def extend(self, rows: np.ndarray) -> None:
        capacity = self._data.shape[0]
        rows = rows[-capacity:]  # only the tail can survive anyway
        n = rows.shape[0]
        end = self._next + n
        if end <= capacity:
            self._data[self._next : end] = rows
        else:
            split = capacity - self._next
            self._data[self._next :] = rows[:split]
            self._data[: end - capacity] = rows[split:]
        self._next = end % capacity
        self.count = min(self.count + n, capacity)

    def mean(self) -> np.ndarray:
        if self.count == 0:
            # NumPy would emit "Mean of empty slice" and return NaN; a loud
            # error beats NaN statistics leaking into thresholds or shifts.
            raise ValueError("mean of an empty window")
        return self._data[: self.count].mean(axis=0)

    def values(self) -> np.ndarray:
        """The populated window rows (in no particular order)."""
        return self._data[: self.count]


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one :meth:`DriftMonitor.update` call."""

    drifted: bool
    score_shift: float
    feature_shift: float
    threshold: float
    n_samples_seen: int
    #: Whether the monitor was suppressing firings during this update — true
    #: for *every* update inside the post-firing cooldown, not only the ones
    #: whose shift re-exceeded the threshold, so sinks see the monitor's
    #: actual state (a quiet cooldown update is still a muted monitor).
    in_cooldown: bool = False

    def to_dict(self) -> dict:
        return {
            "type": "drift",
            "drifted": self.drifted,
            "score_shift": self.score_shift,
            "feature_shift": self.feature_shift,
            "threshold": self.threshold,
            "n_samples_seen": self.n_samples_seen,
            "in_cooldown": self.in_cooldown,
        }


@dataclass
class DriftMonitor:
    """Flag distribution shift from rolling score/feature means.

    Parameters
    ----------
    window:
        Number of most recent samples in the rolling window.
    threshold:
        Shift (in reference standard deviations) above which drift is flagged.
    min_samples:
        Updates report ``drifted=False`` until this many samples have been
        seen, so a few early outliers cannot fire the monitor.
    track_features:
        Also monitor per-feature means (catches covariate drift that does not
        move the anomaly-score distribution yet).
    cooldown:
        Number of ``update`` calls after a firing during which further
        firings are suppressed (reported with ``in_cooldown=True``).
    """

    window: int = 2048
    threshold: float = 0.5
    min_samples: int = 256
    track_features: bool = True
    cooldown: int = 10

    _score_ref: tuple[float, float] | None = field(default=None, repr=False)
    _feature_ref: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    _scores: _RingBuffer | None = field(default=None, repr=False)
    _features: _RingBuffer | None = field(default=None, repr=False)
    _n_seen: int = field(default=0, repr=False)
    _cooldown_left: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be at least 2")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")

    # -- reference -------------------------------------------------------------
    def set_reference(
        self, scores: np.ndarray | None = None, X: np.ndarray | None = None
    ) -> "DriftMonitor":
        """Fix the reference distribution (typically training-time statistics).

        Without an explicit reference, the first ``min_samples`` streamed
        samples become the reference automatically.
        """
        if scores is not None:
            scores = np.asarray(scores, dtype=np.float64).ravel()
            if scores.size < 2:
                raise ValueError("need at least 2 reference scores")
            if not np.isfinite(scores).all():
                raise ValueError(
                    "reference scores contain non-finite values; a poisoned "
                    "reference would misjudge every later shift"
                )
            self._score_ref = (float(scores.mean()), float(max(scores.std(), 1e-12)))
        if X is not None and self.track_features:
            X = np.asarray(X, dtype=np.float64)
            if X.ndim != 2 or X.shape[0] < 2:
                raise ValueError("reference X must be 2-D with at least 2 rows")
            if not np.isfinite(X).all():
                raise ValueError(
                    "reference X contains non-finite values; a poisoned "
                    "reference would misjudge every later shift"
                )
            std = X.std(axis=0)
            std[std == 0.0] = 1e-12
            self._feature_ref = (X.mean(axis=0), std)
        return self

    def reset(
        self, *, clear_score_reference: bool = False, rebootstrap: bool = False
    ) -> None:
        """Clear the rolling windows and cooldown.

        The references are kept by default.  Pass ``clear_score_reference=True``
        when the *model* behind the scores changed: the old model's score
        mean/std says nothing about the new model's scale, so the score
        reference re-bootstraps from the next ``min_samples`` streamed scores.

        Pass ``rebootstrap=True`` from a hot-swap path (drift-triggered
        reload or online refit): it additionally clears the *feature*
        reference.  A refitted model was trained on the post-drift window, so
        the pre-swap feature reference no longer describes the traffic the
        new model considers normal — keeping it would re-flag the (still
        shifted, now expected) features immediately after every swap and
        trap the service in a refit loop.  Both references re-bootstrap from
        the next ``min_samples`` streamed samples.
        """
        self._scores = None
        self._features = None
        self._n_seen = 0
        self._cooldown_left = 0
        if clear_score_reference or rebootstrap:
            self._score_ref = None
        if rebootstrap:
            self._feature_ref = None

    # -- streaming -------------------------------------------------------------
    def update(self, scores: np.ndarray, X: np.ndarray | None = None) -> DriftReport:
        """Fold one batch into the rolling window and report the shift.

        Non-finite rows are dropped before entering the windows: one NaN
        score or feature would otherwise poison the rolling mean — and, at
        stream start, the *bootstrapped reference* — silencing or misfiring
        the monitor for the rest of the window.  (The serving layer
        quarantines such rows before scoring; this guard covers monitors fed
        directly.)  A batch that is finite throughout — always the case behind
        that quarantine — is checked with one flat ``isfinite(...).all()``
        per array and enters the windows as is, without a per-row mask or
        copy.
        """
        scores = np.asarray(scores, dtype=np.float64).ravel()
        if X is not None and self.track_features:
            X = np.asarray(X, dtype=np.float64)
        paired = X is not None and self.track_features and X.shape[0] == scores.shape[0]
        if not (np.isfinite(scores).all() and (not paired or np.isfinite(X).all())):
            finite = np.isfinite(scores)
            if paired:
                finite &= np.isfinite(X).all(axis=1)
                X = X[finite]
            scores = scores[finite]
        if self._scores is None:
            self._scores = _RingBuffer(self.window, 1)
        self._scores.extend(scores[:, None])
        if X is not None and self.track_features:
            if self._features is None:
                self._features = _RingBuffer(self.window, X.shape[1])
            self._features.extend(X)
        self._n_seen += scores.size

        # Bootstrap the reference from the stream head when none was given.
        if self._score_ref is None and self._n_seen >= self.min_samples:
            window_scores = self._scores.values().ravel()
            self._score_ref = (
                float(window_scores.mean()),
                float(max(window_scores.std(), 1e-12)),
            )
        if (
            self._feature_ref is None
            and self._features is not None
            and self._n_seen >= self.min_samples
        ):
            window_features = self._features.values()
            std = window_features.std(axis=0)
            std[std == 0.0] = 1e-12
            self._feature_ref = (window_features.mean(axis=0), std)

        score_shift = 0.0
        feature_shift = 0.0
        if self._score_ref is not None and self._scores.count:
            ref_mean, ref_std = self._score_ref
            score_shift = float(abs(self._scores.mean()[0] - ref_mean) / ref_std)
        if self._feature_ref is not None and self._features is not None and self._features.count:
            ref_mean, ref_std = self._feature_ref
            feature_shift = float(
                np.max(np.abs(self._features.mean() - ref_mean) / ref_std)
            )

        exceeded = (
            self._n_seen >= self.min_samples
            and max(score_shift, feature_shift) > self.threshold
        )
        in_cooldown = self._cooldown_left > 0
        if in_cooldown:
            self._cooldown_left -= 1
        drifted = exceeded and not in_cooldown
        if drifted:
            self._cooldown_left = self.cooldown
        return DriftReport(
            drifted=drifted,
            score_shift=score_shift,
            feature_shift=feature_shift,
            threshold=self.threshold,
            n_samples_seen=self._n_seen,
            in_cooldown=in_cooldown,
        )
