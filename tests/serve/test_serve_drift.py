"""Drift monitor: rolling statistics, firing behaviour, cooldown."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve.drift import DriftMonitor, DriftReport, _RingBuffer
from repro.serve.service import DriftEvent
from repro.serve.sinks import JsonlSink


class TestRingBuffer:
    def test_wraparound_keeps_last_window(self):
        buffer = _RingBuffer(capacity=5, width=1)
        buffer.extend(np.arange(3, dtype=np.float64)[:, None])
        assert buffer.count == 3
        buffer.extend(np.arange(3, 8, dtype=np.float64)[:, None])
        assert buffer.count == 5
        # Window now holds [3, 4, 5, 6, 7].
        assert buffer.mean()[0] == pytest.approx(5.0)

    def test_batch_larger_than_capacity(self):
        buffer = _RingBuffer(capacity=4, width=2)
        rows = np.arange(20, dtype=np.float64).reshape(10, 2)
        buffer.extend(rows)
        np.testing.assert_allclose(buffer.mean(), rows[-4:].mean(axis=0))


class TestDriftMonitor:
    def test_stationary_stream_does_not_fire(self):
        rng = np.random.default_rng(0)
        monitor = DriftMonitor(window=512, threshold=0.5, min_samples=128)
        monitor.set_reference(rng.normal(size=1000), rng.normal(size=(1000, 4)))
        fired = False
        for _ in range(20):
            report = monitor.update(rng.normal(size=100), rng.normal(size=(100, 4)))
            fired = fired or report.drifted
        assert not fired

    def test_score_shift_fires(self):
        rng = np.random.default_rng(1)
        monitor = DriftMonitor(window=256, threshold=0.5, min_samples=64)
        monitor.set_reference(rng.normal(size=1000))
        fired = False
        report = None
        for _ in range(5):
            report = monitor.update(rng.normal(loc=3.0, size=100))
            fired = fired or report.drifted
        assert fired
        assert report.score_shift > 0.5

    def test_feature_shift_fires_without_score_shift(self):
        rng = np.random.default_rng(2)
        monitor = DriftMonitor(window=256, threshold=0.5, min_samples=64)
        monitor.set_reference(rng.normal(size=1000), rng.normal(size=(1000, 3)))
        fired = False
        for _ in range(5):
            X = rng.normal(size=(100, 3))
            X[:, 1] += 2.0  # one feature drifts; scores stay put
            report = monitor.update(rng.normal(size=100), X)
            fired = fired or report.drifted
        assert fired
        assert report.feature_shift > report.score_shift

    def test_min_samples_suppresses_early_firing(self):
        rng = np.random.default_rng(3)
        monitor = DriftMonitor(window=256, threshold=0.5, min_samples=500)
        monitor.set_reference(rng.normal(size=1000))
        report = monitor.update(rng.normal(loc=10.0, size=100))
        assert not report.drifted

    def test_cooldown_suppresses_consecutive_firings(self):
        rng = np.random.default_rng(4)
        monitor = DriftMonitor(window=128, threshold=0.5, min_samples=32, cooldown=3)
        monitor.set_reference(rng.normal(size=500))
        firings = [
            monitor.update(rng.normal(loc=5.0, size=64)).drifted for _ in range(5)
        ]
        assert firings[0] is False or firings.count(True) <= 2
        assert any(firings)
        first = firings.index(True)
        # The next `cooldown` updates cannot fire again.
        assert not any(firings[first + 1 : first + 4])

    def test_reference_bootstrap_from_stream(self):
        rng = np.random.default_rng(5)
        monitor = DriftMonitor(window=512, threshold=0.5, min_samples=200)
        for _ in range(4):  # 400 stationary samples become the reference
            monitor.update(rng.normal(size=100))
        fired = False
        for _ in range(6):
            fired = fired or monitor.update(rng.normal(loc=4.0, size=100)).drifted
        assert fired

    def test_reset_clears_windows_but_keeps_reference(self):
        rng = np.random.default_rng(6)
        monitor = DriftMonitor(window=128, threshold=0.5, min_samples=32)
        monitor.set_reference(rng.normal(size=500))
        for _ in range(3):
            monitor.update(rng.normal(loc=5.0, size=64))
        monitor.reset()
        assert monitor._score_ref is not None
        report = monitor.update(rng.normal(size=64))
        assert report.n_samples_seen == 64
        assert not report.drifted

    def test_quiet_cooldown_update_reports_in_cooldown(self, tmp_path):
        # Regression: update() used to report `in_cooldown and exceeded`, so
        # a quiet update during cooldown claimed in_cooldown=False even
        # though the monitor was still suppressing firings.  The report (and
        # anything sinking it) must reflect the monitor's actual state.
        rng = np.random.default_rng(7)
        monitor = DriftMonitor(window=64, threshold=0.5, min_samples=32, cooldown=5)
        monitor.set_reference(rng.normal(size=500))
        fired = monitor.update(rng.normal(loc=5.0, size=64))
        assert fired.drifted and not fired.in_cooldown
        # the window is fully replaced by normal data: shift decays below the
        # threshold, yet the cooldown is still counting down
        quiet = monitor.update(rng.normal(size=64))
        assert not quiet.drifted
        assert quiet.score_shift < monitor.threshold
        assert quiet.in_cooldown

        sink = JsonlSink(tmp_path / "events.jsonl")
        sink.emit(DriftEvent(batch_index=1, report=quiet))
        sink.close()
        payload = json.loads((tmp_path / "events.jsonl").read_text())
        assert payload["in_cooldown"] is True
        assert payload["drifted"] is False

    def test_report_serializes(self):
        monitor = DriftMonitor(min_samples=4)
        report = monitor.update(np.zeros(8))
        payload = report.to_dict()
        assert payload["type"] == "drift"
        assert set(payload) >= {"drifted", "score_shift", "feature_shift", "threshold"}

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftMonitor(window=1)
        with pytest.raises(ValueError):
            DriftMonitor(threshold=0.0)
        with pytest.raises(ValueError):
            DriftMonitor().set_reference(np.zeros(1))


class _MaskedDriftMonitor(DriftMonitor):
    """The update before the finite fast path: always mask rows, always copy."""

    def update(self, scores, X=None):
        scores = np.asarray(scores, dtype=np.float64).ravel()
        if X is not None and self.track_features:
            X = np.asarray(X, dtype=np.float64)
        finite = np.isfinite(scores)
        if X is not None and self.track_features and X.shape[0] == scores.shape[0]:
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


def _window_state(monitor: DriftMonitor):
    features = monitor._features
    return (
        monitor._scores.values().tobytes(),
        None if features is None else features.values().tobytes(),
        repr(monitor._score_ref),
        None if monitor._feature_ref is None
        else tuple(a.tobytes() for a in monitor._feature_ref),
    )


class TestFiniteFastPath:
    """Finite batches skip the row mask; reports and windows do not change."""

    @staticmethod
    def _batches(rng, n_batches=24, d=5):
        for b in range(n_batches):
            n = int(rng.integers(1, 700))  # one batch beyond the window, most not
            shift = 0.0 if b < 10 else 1.5
            X = rng.normal(loc=shift, size=(n, d))
            yield rng.normal(loc=shift, size=n), X

    @pytest.mark.parametrize("with_reference", [False, True])
    @pytest.mark.parametrize("feed", ["paired", "unpaired", "scores_only", "untracked"])
    def test_finite_batches_match_the_masked_update(self, with_reference, feed):
        rng = np.random.default_rng(17)
        kwargs = dict(window=512, threshold=0.5, min_samples=64, cooldown=3,
                      track_features=feed != "untracked")
        fast, masked = DriftMonitor(**kwargs), _MaskedDriftMonitor(**kwargs)
        if with_reference:
            ref_scores, ref_X = rng.normal(size=300), rng.normal(size=(300, 5))
            fast.set_reference(ref_scores, ref_X)
            masked.set_reference(ref_scores, ref_X)
        fired = False
        for scores, X in self._batches(rng):
            if feed == "unpaired":
                X = X[: max(1, X.shape[0] // 2)]
            elif feed == "scores_only":
                X = None
            report = fast.update(scores, X)
            assert report == masked.update(scores, X)
            assert _window_state(fast) == _window_state(masked)
            fired = fired or report.drifted
        assert fired

    def test_nan_rows_are_dropped_exactly(self):
        rng = np.random.default_rng(3)
        fast = DriftMonitor(window=256, min_samples=16)
        masked = _MaskedDriftMonitor(window=256, min_samples=16)
        scores, X = rng.normal(size=40), rng.normal(size=(40, 3))
        scores[[2, 9]] = np.nan
        X[[9, 30], 1] = np.inf
        report = fast.update(scores, X)
        assert report == masked.update(scores, X)
        assert report.n_samples_seen == 37
        keep = np.setdiff1d(np.arange(40), [2, 9, 30])
        np.testing.assert_array_equal(fast._scores.values().ravel(), scores[keep])
        np.testing.assert_array_equal(fast._features.values(), X[keep])
        assert _window_state(fast) == _window_state(masked)
        # Finite scores do not vouch for the features: a row with a
        # non-finite feature is still dropped.
        scores, X = rng.normal(size=10), rng.normal(size=(10, 3))
        X[4, 0] = np.nan
        report = fast.update(scores, X)
        assert report == masked.update(scores, X)
        assert report.n_samples_seen == 37 + 9
        assert _window_state(fast) == _window_state(masked)
        # Nor do finite features vouch for the scores.
        scores, X = rng.normal(size=10), rng.normal(size=(10, 3))
        scores[7] = -np.inf
        report = fast.update(scores, X)
        assert report == masked.update(scores, X)
        assert report.n_samples_seen == 46 + 9
        assert _window_state(fast) == _window_state(masked)
