"""Lifecycle subsystem: buffer, policies, gate, manager, registry retention.

Covers the drift -> refit -> gate -> publish -> swap loop plus the
satellite guarantees: snapshot artifact integrity (SHA-256), registry GC
retention, the drift-monitor rebootstrap regression (a refitted model must
not re-trigger drift against the pre-swap reference), and end-to-end
recovery: on a stream with injected covariate drift, post-swap alert
precision/recall comes back to within tolerance of a model fit directly on
post-drift data.
"""

from __future__ import annotations

import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.continual.base import ContinualMethod
from repro.core.model import CNDIDS
from repro.datasets.streaming import inject_drift
from repro.metrics.classification import precision_score, recall_score
from repro.novelty import IsolationForest, MahalanobisDetector
from repro.serve import (
    ContinualRefit,
    DetectionService,
    DriftMonitor,
    FullRefit,
    LifecycleEvent,
    LifecycleManager,
    ModelRegistry,
    NoRefit,
    QualityGate,
    SnapshotError,
    WindowBuffer,
    clone_model,
)
from repro.serve.sinks import read_events
from repro.serve.snapshot import encode_model, load_snapshot, save_snapshot


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def fitted_detector(rng):
    return MahalanobisDetector().fit(rng.normal(size=(400, 5)))


# ---------------------------------------------------------------------------
# WindowBuffer
# ---------------------------------------------------------------------------
class TestWindowBuffer:
    def test_bounded_and_keeps_recent_rows(self):
        buffer = WindowBuffer(capacity=10)
        buffer.add(np.zeros((8, 3)))
        buffer.add(np.ones((8, 3)))
        assert buffer.count == 10
        values = buffer.values()
        assert values.shape == (10, 3)
        # all 8 recent rows survive; only 2 of the old zeros can remain
        assert int(values.sum()) == 8 * 3
        assert buffer.n_added_ == 16

    def test_add_clean_filters_above_threshold(self):
        buffer = WindowBuffer(capacity=100)
        X = np.arange(12, dtype=float).reshape(6, 2)
        scores = np.array([0.1, 0.9, 0.2, 0.8, 0.3, 0.7])
        added = buffer.add_clean(X, scores, threshold=0.5)
        assert added == 3 and buffer.count == 3
        assert buffer.n_rejected_ == 3
        np.testing.assert_array_equal(buffer.values(), X[[0, 2, 4]])

    def test_nan_threshold_accepts_nothing(self):
        buffer = WindowBuffer(capacity=8)
        assert buffer.add_clean(np.ones((4, 2)), np.zeros(4), float("nan")) == 0
        assert buffer.count == 0

    def test_width_contract_and_validation(self):
        buffer = WindowBuffer(capacity=8)
        buffer.add(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="features"):
            buffer.add(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="2-D"):
            buffer.add(np.zeros(3))
        with pytest.raises(ValueError):
            WindowBuffer(capacity=0)

    def test_clear_keeps_width(self):
        buffer = WindowBuffer(capacity=8)
        buffer.add(np.zeros((4, 3)))
        buffer.clear()
        assert buffer.count == 0
        assert buffer.n_features == 3

    def test_values_is_a_copy(self):
        buffer = WindowBuffer(capacity=4)
        buffer.add(np.zeros((2, 2)))
        buffer.values()[:] = 99.0
        assert buffer.values().sum() == 0.0


# ---------------------------------------------------------------------------
# Refit policies
# ---------------------------------------------------------------------------
class TestPolicies:
    def test_clone_model_is_independent_and_bit_identical(self, rng, fitted_detector):
        X = rng.normal(size=(50, 5))
        clone = clone_model(fitted_detector)
        assert clone is not fitted_detector
        np.testing.assert_array_equal(
            clone.score_samples(X), fitted_detector.score_samples(X)
        )
        clone.threshold_ = -1.0
        assert fitted_detector.threshold_ != -1.0

    def test_full_refit_without_factory_clones_and_fits(self, rng, fitted_detector):
        window = rng.normal(size=(300, 5)) + 10.0
        before = fitted_detector.threshold_
        candidate = FullRefit().refit(fitted_detector, window)
        assert candidate is not fitted_detector
        assert fitted_detector.threshold_ == before  # served model untouched
        # the candidate considers the (shifted) window ordinary traffic
        rate = np.mean(candidate.score_samples(window) > candidate.threshold_)
        assert rate < 0.2

    def test_full_refit_with_factory(self, rng, fitted_detector):
        window = rng.normal(size=(300, 5))
        candidate = FullRefit(
            lambda: MahalanobisDetector(threshold_quantile=0.9)
        ).refit(fitted_detector, window)
        assert candidate.threshold_quantile == 0.9

    def test_full_refit_rejects_fitless_factory(self, fitted_detector):
        with pytest.raises(TypeError, match="fit"):
            FullRefit(lambda: object()).refit(fitted_detector, np.zeros((10, 5)))

    def test_continual_refit_rejects_plain_detector(self, fitted_detector):
        with pytest.raises(TypeError, match="continual"):
            ContinualRefit().refit(fitted_detector, np.zeros((10, 5)))

    def test_continual_refit_routes_through_update(self, rng):
        clean = rng.normal(size=(200, 4))
        method = CNDIDS(
            input_dim=4, latent_dim=8, hidden_dims=(16,), epochs=1,
            n_clusters=2, max_clean_normal=200, random_state=0,
        )
        method.setup(clean)
        method.fit_experience(rng.normal(size=(150, 4)))
        candidate = ContinualRefit().refit(method, rng.normal(size=(150, 4)) + 1.0)
        assert candidate is not method
        assert candidate.experience_count == method.experience_count + 1
        assert np.isfinite(candidate.score_samples(clean[:20])).all()

    def test_update_default_delegates_to_fit_experience(self):
        calls = []

        class Probe(ContinualMethod):
            def fit_experience(self, X_train, **kwargs):
                calls.append(np.asarray(X_train).shape)

        Probe().update(np.zeros((7, 3)))
        assert calls == [(7, 3)]

    def test_no_refit_declines(self, fitted_detector):
        assert NoRefit().refit(fitted_detector, np.zeros((10, 5))) is None


class TestCloneModelInMemory:
    """``clone_model`` gives what a disk round trip gives, without the disk."""

    @pytest.fixture(params=["iforest", "cndids"])
    def model(self, request, rng):
        if request.param == "iforest":
            return IsolationForest(n_estimators=20, random_state=rng).fit(
                rng.normal(size=(300, 5))
            )
        method = CNDIDS(
            input_dim=5, latent_dim=8, hidden_dims=(16,), epochs=1,
            n_clusters=2, max_clean_normal=200, random_state=0,
        )
        method.setup(rng.normal(size=(200, 5)))
        method.fit_experience(rng.normal(size=(150, 5)))
        return method

    def test_scores_like_the_disk_round_trip(self, model, rng, tmp_path):
        X = rng.normal(size=(80, 5)) * 3.0
        from_disk = load_snapshot(save_snapshot(model, tmp_path / "model"))
        clone = clone_model(model)
        assert clone.score_samples(X).tobytes() == from_disk.score_samples(X).tobytes()
        assert encode_model(clone)[0] == encode_model(from_disk)[0]
        types = lambda obj: {name: type(v) for name, v in vars(obj).items()}
        assert types(clone) == types(from_disk)

    def test_shares_no_array_with_the_original(self, model):
        original = list(encode_model(model)[1].values())
        copied = list(encode_model(clone_model(model))[1].values())
        assert sorted(a.tobytes() for a in original) == sorted(a.tobytes() for a in copied)
        for array in original:
            assert not any(np.shares_memory(array, other) for other in copied)

    def test_generator_is_a_distinct_equal_object(self, rng):
        generator = np.random.default_rng(5)
        model = IsolationForest(n_estimators=5, random_state=generator).fit(
            rng.normal(size=(100, 3))
        )
        clone = clone_model(model)
        assert clone.random_state is not generator
        assert clone.random_state.bit_generator.state == generator.bit_generator.state

    @pytest.mark.parametrize(
        "value", [np.array([object()], dtype=object), {1, 2}, np.datetime64("2026-01-01")]
    )
    def test_refused_value_raises_the_save_error(self, fitted_detector, value, tmp_path):
        fitted_detector.extra = value
        with pytest.raises(SnapshotError) as saved:
            save_snapshot(fitted_detector, tmp_path / "model")
        with pytest.raises(SnapshotError) as cloned:
            clone_model(fitted_detector)
        assert str(cloned.value) == str(saved.value)

    def test_never_writes_an_array_store(self, model, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("clone_model wrote an array store")

        # Every .npz writer, stored or deflated, opens a zipfile.ZipFile.
        monkeypatch.setattr(zipfile, "ZipFile", refuse)
        X = rng.normal(size=(40, 5))
        assert clone_model(model).score_samples(X).tobytes() == model.score_samples(X).tobytes()


# ---------------------------------------------------------------------------
# QualityGate
# ---------------------------------------------------------------------------
class _StubScorer:
    def __init__(self, scores, threshold=None):
        self._scores = np.asarray(scores, dtype=np.float64)
        if threshold is not None:
            self.threshold_ = threshold

    def score_samples(self, X):
        return self._scores[: X.shape[0]]


class TestQualityGate:
    def test_passes_sane_candidate(self, rng, fitted_detector):
        result = QualityGate().evaluate(fitted_detector, rng.normal(size=(100, 5)))
        assert result.passed and result.reason is None
        assert 0.0 <= result.stats["clean_alert_rate"] <= 0.25

    def test_rejects_non_finite_scores(self):
        scores = np.ones(50)
        scores[3] = np.nan
        result = QualityGate().evaluate(_StubScorer(scores), np.zeros((50, 2)))
        assert not result.passed and "non-finite" in result.reason

    def test_rejects_constant_scorer(self):
        result = QualityGate().evaluate(_StubScorer(np.ones(50)), np.zeros((50, 2)))
        assert not result.passed and "constant" in result.reason

    def test_rejects_high_clean_alert_rate(self, rng):
        # threshold below every score -> the candidate flags 100% of clean rows
        scores = rng.normal(size=50)
        result = QualityGate().evaluate(
            _StubScorer(scores, threshold=scores.min() - 1.0), np.zeros((50, 2))
        )
        assert not result.passed and "flags" in result.reason

    def test_holdout_quantile_rejects_unstable_thresholdless_scorer(self):
        # No threshold_: a self-quantile over the whole window would pin the
        # alert rate at 1 - fallback_quantile for ANY scorer.  The holdout
        # split (threshold from the first half, rate on the second) catches
        # a scorer whose scale wanders across the window.
        ramp = np.linspace(0.0, 100.0, 100)  # second half far above the first
        result = QualityGate().evaluate(_StubScorer(ramp), np.zeros((100, 2)))
        assert not result.passed and "flags" in result.reason
        assert result.stats["threshold_source"] == "holdout_quantile"

    def test_holdout_quantile_passes_stable_thresholdless_scorer(self, rng):
        scores = rng.normal(size=200)
        result = QualityGate().evaluate(_StubScorer(scores), np.zeros((200, 2)))
        assert result.passed
        assert result.stats["threshold_source"] == "holdout_quantile"

    def test_rejects_tiny_reference_window(self, fitted_detector):
        result = QualityGate().evaluate(fitted_detector, np.zeros((1, 5)))
        assert not result.passed

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            QualityGate(max_clean_alert_rate=0.0)
        with pytest.raises(ValueError):
            QualityGate(fallback_quantile=1.0)


# ---------------------------------------------------------------------------
# LifecycleManager (sequential loop)
# ---------------------------------------------------------------------------
def _drifted_service(detector, lifecycle, rng):
    monitor = DriftMonitor(window=256, min_samples=128, cooldown=4)
    pre = rng.normal(size=(600, 5))
    monitor.set_reference(detector.score_samples(pre), pre)
    return DetectionService(
        detector,
        threshold="rolling",
        min_rolling=32,
        drift_monitor=monitor,
        lifecycle=lifecycle,
    )


def _refit_run(registry_dir, rng):
    """A drifting stream served with FullRefit publishing to ``registry_dir``.

    Returns ``(service, manager, registry, results)``.
    """
    detector = IsolationForest(n_estimators=15, random_state=0).fit(
        rng.normal(size=(800, 5))
    )
    registry = ModelRegistry(registry_dir)
    registry.publish(detector, "ids")
    manager = LifecycleManager(
        FullRefit(lambda: IsolationForest(n_estimators=15, random_state=0)),
        buffer=WindowBuffer(512),
        registry=registry,
        model_name="ids",
        min_refit_rows=64,
    )
    service = _drifted_service(detector, manager, rng)
    pre = rng.normal(size=(512, 5))
    post = rng.normal(size=(1024, 5)) + 5.0
    batches = [pre[i : i + 128] for i in range(0, 512, 128)]
    batches += [post[i : i + 128] for i in range(0, 1024, 128)]
    results = [service.process_batch(X) for X in batches]
    return service, manager, registry, results


class TestLifecycleManager:
    def test_validation(self, fitted_detector):
        with pytest.raises(TypeError, match="RefitPolicy"):
            LifecycleManager(policy=lambda: None)
        with pytest.raises(ValueError, match="model_name"):
            LifecycleManager(FullRefit(), registry=ModelRegistry("/tmp/x"))
        with pytest.raises(ValueError, match="min_refit_rows"):
            LifecycleManager(FullRefit(), min_refit_rows=1)

    def test_skip_when_window_too_small_and_no_registry(self, fitted_detector):
        manager = LifecycleManager(FullRefit(), min_refit_rows=100)
        candidate, event = manager.produce_candidate(fitted_detector)
        assert candidate is None
        assert event.action == "skipped" and "min_refit_rows" in event.reason

    def test_reload_fallback_declines_already_serving_version(
        self, tmp_path, rng, fitted_detector
    ):
        # Re-"swapping" the byte-identical registry version would only reset
        # the drift monitor and absorb the drift signal; with a known
        # serving_version the fallback must decline until something newer
        # is published.
        registry = ModelRegistry(tmp_path)
        info = registry.publish(fitted_detector, "ids")
        manager = LifecycleManager(
            NoRefit(), registry=registry, model_name="ids",
            min_refit_rows=10, serving_version=info.version,
        )
        manager.buffer.add(rng.normal(size=(50, 5)))
        service = _drifted_service(fitted_detector, manager, rng)
        event = manager.handle_drift(service, report=None)
        assert event.action == "skipped" and not event.swapped
        assert "already serving" in event.reason
        assert service.epoch_ == 0
        assert service.drift_monitor._feature_ref is not None  # no reset
        # once a newer version exists the fallback reloads it
        registry.publish(fitted_detector, "ids")
        event = manager.handle_drift(service, report=None)
        assert event.action == "reload" and event.swapped
        assert manager.serving_version == 2
        # a reload swap is NOT a refit: the possibly-stale model keeps the
        # feature reference so a persistent shift would keep re-firing
        assert service.drift_monitor._feature_ref is not None
        assert service.drift_monitor._score_ref is None

    def test_reload_fallback_skips_an_unpublished_model(
        self, tmp_path, rng, fitted_detector
    ):
        registry = ModelRegistry(tmp_path)
        registry.publish(fitted_detector, "other")
        manager = LifecycleManager(
            NoRefit(), registry=registry, model_name="ids", min_refit_rows=10,
        )
        manager.buffer.add(rng.normal(size=(50, 5)))
        service = _drifted_service(fitted_detector, manager, rng)
        event = manager.handle_drift(service, report=None)
        assert event.action == "skipped" and not event.swapped
        assert event.reason.endswith("registry has no published version of 'ids'")
        assert service.detector is fitted_detector and service.epoch_ == 0

    def test_reload_fallback_follows_the_pin(self, tmp_path, rng, fitted_detector):
        # Pinning an older version is an operator rollback: the next drift
        # firing swaps it in, and the one after leaves it serving.
        registry = ModelRegistry(tmp_path)
        registry.publish(fitted_detector, "ids")
        newer = MahalanobisDetector().fit(rng.normal(2.0, 1.0, size=(400, 5)))
        registry.publish(newer, "ids")
        registry.pin("ids", 1)
        manager = LifecycleManager(
            NoRefit(), registry=registry, model_name="ids",
            min_refit_rows=10, serving_version=2,
        )
        manager.buffer.add(rng.normal(size=(50, 5)))
        service = _drifted_service(newer, manager, rng)
        event = manager.handle_drift(service, report=None)
        assert event.action == "reload" and event.swapped and event.epoch == 1
        assert manager.serving_version == 1
        X = rng.normal(size=(20, 5))
        np.testing.assert_array_equal(
            service.detector.score_samples(X), fitted_detector.score_samples(X)
        )
        event = manager.handle_drift(service, report=None)
        assert event.action == "skipped"
        assert "v1, which is already serving" in event.reason
        assert service.epoch_ == 1

    def test_reload_fallback_resolves_registry(self, tmp_path, rng, fitted_detector):
        registry = ModelRegistry(tmp_path)
        registry.publish(fitted_detector, "ids")
        manager = LifecycleManager(
            NoRefit(), registry=registry, model_name="ids", min_refit_rows=10,
        )
        manager.buffer.add(rng.normal(size=(50, 5)))
        candidate, event = manager.produce_candidate(fitted_detector)
        assert event.action == "reload" and candidate is not None
        X = rng.normal(size=(20, 5))
        np.testing.assert_array_equal(
            candidate.score_samples(X), fitted_detector.score_samples(X)
        )

    def test_gate_rejection_keeps_current_model(self, tmp_path, rng, fitted_detector):
        registry = ModelRegistry(tmp_path)
        registry.publish(fitted_detector, "ids")
        manager = LifecycleManager(
            FullRefit(),
            gate=QualityGate(max_clean_alert_rate=1e-9),  # nothing can pass
            registry=registry,
            model_name="ids",
            min_refit_rows=10,
        )
        manager.buffer.add(rng.normal(size=(100, 5)))
        service = _drifted_service(fitted_detector, manager, rng)
        event = manager.handle_drift(service, report=None)
        assert event.action == "rejected" and not event.swapped
        assert service.detector is fitted_detector
        assert service.epoch_ == 0
        assert registry.versions("ids") == [1]  # nothing published
        assert manager.n_rejected_ == 1

    def test_drift_refit_publish_swap_end_to_end(self, tmp_path, rng):
        service, manager, registry, results = _refit_run(tmp_path, rng)

        assert service.epoch_ >= 1
        swaps = [e for e in manager.events if e.swapped and e.action == "refit"]
        assert swaps, f"no refit swap happened: {[e.action for e in manager.events]}"
        assert registry.versions("ids")[-1] == swaps[-1].published_version
        manifest = registry.resolve("ids", swaps[-1].published_version).manifest
        assert manifest["metadata"]["lifecycle"] == {
            "policy": "full",
            "n_window_rows": swaps[-1].n_window_rows,
            "gate": swaps[-1].gate.stats,
        }
        # batches are epoch-tagged: pre-swap 0, and the tag only ever grows
        epochs = [r.model_epoch for r in results]
        assert epochs[0] == 0 and epochs[-1] == service.epoch_
        assert all(a <= b for a, b in zip(epochs, epochs[1:]))
        # the swapped-in model treats post-drift traffic as normal
        tail_rate = np.mean(results[-1].predictions)
        assert tail_rate < 0.2

    def test_gate_passed_refit_swaps_on_the_batch_that_fired(self, tmp_path, rng):
        service, manager, registry, results = _refit_run(tmp_path, rng)
        # one lifecycle decision per drift firing, taken on that batch
        assert len(manager.events) == len(service.drift_batches_)
        refits = [
            (batch, event)
            for batch, event in zip(service.drift_batches_, manager.events)
            if event.action == "refit"
        ]
        assert refits
        for batch, event in refits:
            assert event.swapped and event.gate.passed
            # published before the next batch, which the candidate scores
            assert event.published_version in registry.versions("ids")
            assert results[batch].model_epoch == event.epoch - 1
            if batch + 1 < len(results):
                assert results[batch + 1].model_epoch == event.epoch

    def test_refit_latency_is_the_refit_span(self, tmp_path, rng):
        """``refit_latency_s`` is the wall time the ``refit`` span recorded."""
        service, manager, _, _ = _refit_run(tmp_path, rng)
        spans = service.metrics_snapshot()["histograms"]["stage.refit.seconds"]
        latencies = [e.refit_latency_s for e in manager.events if e.refit_latency_s]
        assert latencies and len(latencies) == spans["count"]
        assert sum(latencies) == spans["sum"]

    def test_event_record_fields(self):
        event = LifecycleEvent(action="refit", policy="full", swapped=True, epoch=1)
        assert event.to_dict() == {
            "type": "lifecycle",
            "action": "refit",
            "policy": "full",
            "swapped": True,
            "epoch": 1,
            "n_window_rows": 0,
            "published_version": None,
            "refit_latency_s": 0.0,
            "gate": None,
            "reason": None,
        }

    def test_observe_batch_skips_drift_episodes(self, fitted_detector):
        manager = LifecycleManager(FullRefit(), min_refit_rows=10)
        X = np.zeros((8, 5))
        scores = np.zeros(8)
        from repro.serve.drift import DriftReport

        calm = DriftReport(
            drifted=False, score_shift=0.0, feature_shift=0.0,
            threshold=0.5, n_samples_seen=100,
        )
        fired = DriftReport(
            drifted=True, score_shift=2.0, feature_shift=0.0,
            threshold=0.5, n_samples_seen=100,
        )
        cooling = DriftReport(
            drifted=False, score_shift=2.0, feature_shift=0.0,
            threshold=0.5, n_samples_seen=100, in_cooldown=True,
        )
        assert manager.observe_batch(X, scores, 1.0, calm) == 8
        assert manager.observe_batch(X, scores, 1.0, fired) == 0
        # cooldown batches ARE admitted: under a persistent shift every batch
        # sits in a cooldown-or-refire episode, and excluding them would
        # starve the refit window forever (deadlocking the lifecycle)
        assert manager.observe_batch(X, scores, 1.0, cooling) == 8
        assert manager.observe_batch(X, scores, 1.0, None) == 8


# ---------------------------------------------------------------------------
# DriftMonitor rebootstrap regression (the hot-swap bugfix)
# ---------------------------------------------------------------------------
class TestDriftMonitorRebootstrap:
    def _fired_monitor(self, rng, **kwargs):
        pre = rng.normal(size=(400, 3))
        post = pre + 6.0
        monitor = DriftMonitor(window=128, min_samples=64, cooldown=0, **kwargs)
        monitor.set_reference(np.linspace(0, 1, 400), pre)
        report = monitor.update(np.linspace(0, 1, 400), post)
        assert report.drifted
        return monitor, post

    def test_rebootstrap_clears_both_references(self, rng):
        monitor, post = self._fired_monitor(rng)
        monitor.reset(rebootstrap=True)
        assert monitor._score_ref is None and monitor._feature_ref is None
        # the still-shifted (now expected) traffic re-becomes the reference
        # instead of re-firing drift forever
        reports = [
            monitor.update(np.linspace(0, 1, 400), post) for _ in range(5)
        ]
        assert not any(r.drifted for r in reports)

    def test_score_only_reset_kept_the_stale_feature_reference(self, rng):
        # the pre-fix swap path: without rebootstrap the feature reference
        # survives and the same shifted traffic immediately re-fires
        monitor, post = self._fired_monitor(rng)
        monitor.reset(clear_score_reference=True)
        assert monitor._feature_ref is not None
        reports = [
            monitor.update(np.linspace(0, 1, 400), post) for _ in range(5)
        ]
        assert any(r.drifted for r in reports)

    def test_reload_detector_rebootstraps_and_bumps_epoch(self, rng, fitted_detector):
        monitor, _ = self._fired_monitor(rng)
        service = DetectionService(
            fitted_detector, threshold="rolling", drift_monitor=monitor
        )
        assert service.epoch_ == 0
        service.reload_detector(clone_model(fitted_detector))
        assert service.epoch_ == 1
        assert monitor._score_ref is None and monitor._feature_ref is None

    def test_reload_detector_resets_the_rolling_window(self, rng, fitted_detector):
        # The old model's scores must not set the new model's threshold: a
        # swapped-in model on another scale warms up on its own default.
        class Rescaled:
            def __init__(self, base):
                self.base = base
                self.threshold_ = base.threshold_ * 100.0

            def score_samples(self, X):
                return self.base.score_samples(X) * 100.0

        service = DetectionService(
            fitted_detector, threshold="rolling", min_rolling=32
        )
        X = rng.normal(size=(200, 5))
        results = [
            service.process_batch(X[start : start + 50]) for start in range(0, 200, 50)
        ]
        assert results[-1].threshold != fitted_detector.threshold_  # rolling quantile
        rescaled = Rescaled(fitted_detector)
        service.reload_detector(rescaled)
        result = service.process_batch(X[:50])
        assert result.threshold == rescaled.threshold_
        assert result.predictions.mean() < 0.5

    def test_reload_detector_can_keep_feature_reference(self, rng, fitted_detector):
        # rebootstrap=False: the path for re-serving a possibly stale model
        # (a NoRefit registry reload) — the score scale resets but a
        # persistent covariate shift must keep re-firing
        monitor, _ = self._fired_monitor(rng)
        service = DetectionService(
            fitted_detector, threshold="rolling", drift_monitor=monitor
        )
        service.reload_detector(clone_model(fitted_detector), rebootstrap=False)
        assert service.epoch_ == 1
        assert monitor._score_ref is None
        assert monitor._feature_ref is not None


# ---------------------------------------------------------------------------
# Swap lineage: history.jsonl, `repro registry history`, the run report
# ---------------------------------------------------------------------------
class TestLineage:
    #: ``history.jsonl`` written by a serve run whose lifecycle events carried
    #: the since-removed ``shadow_start``/``shadow_pass``/``shadow_reject``
    #: actions and a ``"shadow"`` verdict object (two runs appended to the
    #: same registry: the second one ended with a trial still open).
    LEGACY_HISTORY = Path(__file__).parent / "data" / "history_with_shadow.jsonl"

    def test_history_replays_after_restart(self, tmp_path, rng):
        _, manager, _, _ = _refit_run(tmp_path, rng)
        recorded = [event.to_dict() for event in manager.events]
        assert any(r["action"] == "refit" and r["swapped"] for r in recorded)
        # a fresh registry object over the same directory (= a new process)
        # replays the identical lineage, and GC keeps the audit trail
        reopened = ModelRegistry(tmp_path)
        assert reopened.history("ids") == recorded
        reopened.gc("ids", keep=1)
        assert reopened.history("ids") == recorded

    def test_history_cli_rejects_version_and_unknown_model(
        self, tmp_path, rng, capsys
    ):
        from repro.serve.cli import main

        _, manager, _, _ = _refit_run(tmp_path, rng)
        assert main(["registry", "history", "ids", "--registry", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        refit = next(e for e in manager.events if e.action == "refit")
        assert (
            f"refit -> swapped (epoch {refit.epoch}, "
            f"published v{refit.published_version})"
        ) in out
        assert f"{len(manager.events)} lifecycle event(s) recorded for ids" in out
        # like `registry gc`, a stray positional version must not be
        # silently ignored (the lineage file spans every version)
        with pytest.raises(SystemExit, match="no version argument"):
            main(["registry", "history", "ids", "2", "--registry", str(tmp_path)])
        # and a typo'd model name must not look like an empty-but-valid lineage
        with pytest.raises(SystemExit, match="no published versions"):
            main(["registry", "history", "nope", "--registry", str(tmp_path)])

    def test_legacy_history_stays_readable(self, tmp_path, capsys):
        from repro.serve.cli import main
        from repro.serve.telemetry import build_report, render_markdown

        name = "iforest-wustl_iiot"
        (tmp_path / name).mkdir()
        shutil.copy(self.LEGACY_HISTORY, tmp_path / name / "history.jsonl")
        registry = ModelRegistry(tmp_path)
        history = registry.history(name)
        assert len(history) == 7

        assert main(["registry", "history", name, "--registry", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "[0] shadow_start -> kept current model (epoch 0)",
            "[1] shadow_pass -> swapped (epoch 1, published v2)",
            "[2] shadow_start -> kept current model (epoch 1)",
            "[3] shadow_pass -> swapped (epoch 2, published v3)",
            "[4] shadow_start -> kept current model (epoch 0)",
            "[5] shadow_reject -> kept current model (epoch 0)",
            "[6] shadow_start -> kept current model (epoch 0)",
            f"7 lifecycle event(s) recorded for {name}",
        ]

        summary = {"n_batches": 15, "n_samples": 3650}
        report = build_report(summary, events=history, generated_at="t")
        lifecycle = next(s for s in report["sections"] if s["title"] == "Lifecycle")
        assert lifecycle["data"]["actions"] == {
            "shadow_pass": 2, "shadow_reject": 1, "shadow_start": 4,
        }
        assert [c["id"] for c in lifecycle["checks"]] == ["LC-02"]
        assert lifecycle["checks"][0]["evidence"] == {
            "n_swaps": 2, "n_unversioned": 0,
        }
        assert lifecycle["verdict"] == "MET"
        render_markdown(report)
        # as sink events (a run's events.jsonl), every record is on the timeline
        timeline = next(s for s in report["sections"] if s["title"] == "Timeline")
        assert [e["action"] for e in timeline["data"]["entries"]] == [
            r["action"] for r in history
        ]


# ---------------------------------------------------------------------------
# Registry retention + snapshot integrity (satellites)
# ---------------------------------------------------------------------------
class TestRegistryLifecycle:
    def test_gc_keeps_newest_and_pinned(self, tmp_path, fitted_detector):
        registry = ModelRegistry(tmp_path)
        for _ in range(5):
            registry.publish(fitted_detector, "ids")
        registry.pin("ids", 2)
        deleted = registry.gc("ids", keep=2)
        assert [info.version for info in deleted] == [1, 3]
        assert registry.versions("ids") == [2, 4, 5]
        assert registry.load("ids", 2) is not None  # pinned survived intact

    def test_gc_all_models_and_validation(self, tmp_path, fitted_detector):
        registry = ModelRegistry(tmp_path)
        for name in ("a", "b"):
            for _ in range(3):
                registry.publish(fitted_detector, name)
        deleted = registry.gc(keep=1)
        assert {(info.name, info.version) for info in deleted} == {
            ("a", 1), ("a", 2), ("b", 1), ("b", 2),
        }
        with pytest.raises(ValueError, match="keep"):
            registry.gc(keep=0)

    def test_manifest_carries_artifact_hash(self, tmp_path, fitted_detector):
        registry = ModelRegistry(tmp_path)
        info = registry.publish(fitted_detector, "ids")
        artifacts = info.manifest["artifacts"]
        assert set(artifacts) == {"arrays.npz"}
        assert len(artifacts["arrays.npz"]["sha256"]) == 64

    def test_corrupted_arrays_rejected_on_load(self, tmp_path, fitted_detector):
        registry = ModelRegistry(tmp_path)
        info = registry.publish(fitted_detector, "ids")
        arrays = info.path / "arrays.npz"
        blob = bytearray(arrays.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        arrays.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="sha256 .* does not match"):
            registry.load("ids")

    def test_missing_artifact_rejected_on_load(self, tmp_path, fitted_detector):
        registry = ModelRegistry(tmp_path)
        info = registry.publish(fitted_detector, "ids")
        (info.path / "arrays.npz").unlink()
        with pytest.raises(SnapshotError, match="missing artifact"):
            registry.load("ids")

    def test_cli_gc_rejects_positional_version(self, tmp_path, fitted_detector):
        # `registry gc name 3` must not silently run with --keep's default
        from repro.serve.cli import main

        ModelRegistry(tmp_path).publish(fitted_detector, "ids")
        with pytest.raises(SystemExit, match="no version argument"):
            main(["registry", "gc", "ids", "3", "--registry", str(tmp_path)])


# ---------------------------------------------------------------------------
# `repro serve --refit reload`: registry reload as the drift reaction
# ---------------------------------------------------------------------------
class TestRefitReloadCli:
    #: A rolling-threshold stream whose drift keeps re-firing: the swap
    #: churn of a blind reload on every drift firing would show up here.
    SERVE = [
        "serve", "--dataset", "wustl_iiot", "--scale", "0.002",
        "--detector", "iforest", "--drift-strength", "3",
        "--threshold", "rolling", "--refit", "reload",
    ]

    @staticmethod
    def _lifecycle_records(run_dir):
        return [r for r in read_events(run_dir / "events.jsonl") if r["type"] == "lifecycle"]

    def test_published_model_is_never_reswapped(self, tmp_path, capsys):
        from repro.serve.cli import main

        registry, run_dir = tmp_path / "registry", tmp_path / "run"
        assert main([
            *self.SERVE, "--registry", str(registry), "--publish",
            "--run-dir", str(run_dir),
        ]) == 0
        records = self._lifecycle_records(run_dir)
        assert records
        assert all(r["action"] == "skipped" and not r["swapped"] for r in records)
        assert all(r["epoch"] == 0 for r in records)
        assert all("v1, which is already serving" in r["reason"] for r in records)
        assert "-> swapped" not in capsys.readouterr().out

    def test_older_version_reloads_latest_once(self, tmp_path):
        from repro.datasets.registry import load_dataset
        from repro.serve.cli import main

        registry_dir, run_dir = tmp_path / "registry", tmp_path / "run"
        normal = load_dataset("wustl_iiot", scale=0.002, seed=0).normal_data()
        registry = ModelRegistry(registry_dir)
        for seed in (0, 1):
            registry.publish(
                IsolationForest(n_estimators=20, random_state=seed).fit(normal), "ids"
            )
        assert main([
            *self.SERVE, "--registry", str(registry_dir), "--model", "ids@v1",
            "--run-dir", str(run_dir),
        ]) == 0
        records = self._lifecycle_records(run_dir)
        assert len(records) >= 2  # drift re-fires after the reload
        assert records[0]["action"] == "reload" and records[0]["swapped"]
        assert records[0]["epoch"] == 1
        assert all(r["action"] == "skipped" and not r["swapped"] for r in records[1:])
        assert all(r["epoch"] == 1 for r in records)
        assert [r["action"] for r in registry.history("ids")] == [
            r["action"] for r in records
        ]

    def test_reload_on_drift_flag_is_gone(self, capsys):
        from repro.serve.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--reload-on-drift"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --reload-on-drift" in capsys.readouterr().err

    def test_removed_flags_are_usage_errors(self, capsys):
        from repro.serve.cli import main

        for flag, value in (
            ("--shadow-rounds", "3"), ("--shadow-min-agreement", "0.6"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main([*self.SERVE, "--registry", "r", "--publish", flag, value])
            assert excinfo.value.code == 2
            with pytest.raises(SystemExit) as excinfo:
                main([*self.SERVE, "--registry", "r", "--publish", f"{flag}={value}"])
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag}=" in capsys.readouterr().err

    def test_usage_errors(self, tmp_path):
        from repro.serve.cli import main

        with pytest.raises(SystemExit, match="--refit reload requires --registry"):
            main(["serve", "--refit", "reload"])
        with pytest.raises(SystemExit, match="--refit reload requires --registry"):
            main(["serve", "--refit", "reload", "--registry", str(tmp_path)])

    def test_refit_continual_is_rejected_before_the_fit(self, tmp_path, capsys):
        """A built-in detector fails ``--refit continual`` before it is fitted
        or published, so the refused run leaves no version behind."""
        from repro.serve.cli import main

        registry_dir = tmp_path / "registry"
        with pytest.raises(SystemExit, match="--refit continual requires a continual method"):
            main([
                "serve", "--scale", "0.002", "--detector", "iforest",
                "--refit", "continual", "--registry", str(registry_dir), "--publish",
            ])
        out = capsys.readouterr().out
        assert "fitted" not in out and "published" not in out
        assert ModelRegistry(registry_dir).models() == []


# ---------------------------------------------------------------------------
# Degenerate streams through the lifecycle path (satellite)
# ---------------------------------------------------------------------------
class TestDegenerateStreams:
    """Zero-row batches and all-alert streams must stay NaN- and warning-free.

    The whole tests/serve suite escalates RuntimeWarning to an error (see
    conftest.py), so NumPy's "Mean of empty slice" in any rolling statistic
    would fail these outright.
    """

    def _lifecycle_service(self, rng, threshold="rolling", **service_kwargs):
        detector = IsolationForest(
            n_estimators=20, random_state=0, threshold_quantile=0.9
        ).fit(rng.normal(size=(500, 4)))
        manager = LifecycleManager(
            FullRefit(lambda: IsolationForest(
                n_estimators=20, random_state=0, threshold_quantile=0.9
            )),
            buffer=WindowBuffer(256),
            min_refit_rows=64,
        )
        monitor = DriftMonitor(window=128, min_samples=64, cooldown=4)
        service = DetectionService(
            detector,
            threshold=threshold,
            min_rolling=32,
            drift_monitor=monitor,
            lifecycle=manager,
            **service_kwargs,
        )
        return service, manager

    def test_zero_row_batches_interleaved(self, rng):
        service, manager = self._lifecycle_service(rng)
        empty = np.empty((0, 4))
        batches = [empty]
        for _ in range(6):
            batches.append(rng.normal(size=(64, 4)))
            batches.append(empty)
        results = [service.process_batch(batch) for batch in batches]
        report = service.report()
        assert report.n_batches == len(batches)
        assert report.n_samples == 6 * 64
        # empty batches carry the nan marker but never reach the buffer
        empties = [result for result in results if result.n_samples == 0]
        assert len(empties) == 7
        assert all(np.isnan(result.threshold) for result in empties)
        assert manager.buffer.n_features == 4
        # non-empty batches always derived a finite threshold
        assert all(
            np.isfinite(result.threshold)
            for result in results
            if result.n_samples
        )

    def test_all_alert_stream_never_fills_window(self, rng):
        # A threshold below every score marks the entire stream anomalous:
        # the refit window must stay empty and the drift reaction must skip
        # without NaN thresholds or empty-slice statistics anywhere.
        from repro.serve import DriftReport

        service, manager = self._lifecycle_service(rng, threshold=-1e9)
        results = [
            service.process_batch(rng.normal(size=(64, 4))) for _ in range(8)
        ]
        assert all(result.n_alerts == result.n_samples for result in results)
        assert manager.buffer.count == 0
        assert manager.buffer.n_rejected_ == 8 * 64
        report = manager.handle_drift(
            service,
            DriftReport(
                drifted=True, score_shift=9.0, feature_shift=0.0,
                threshold=0.5, n_samples_seen=512,
            ),
        )
        assert report.action == "skipped"
        assert not report.swapped and service.epoch_ == 0

    def test_empty_ring_buffer_mean_is_a_loud_error(self):
        from repro.serve.drift import _RingBuffer

        # Silent NaN statistics are the failure mode this suite guards
        # against; an empty window must raise instead of warning.
        with pytest.raises(ValueError, match="empty window"):
            _RingBuffer(8, 2).mean()


# ---------------------------------------------------------------------------
# End-to-end recovery on a drifting stream
# ---------------------------------------------------------------------------
BATCH = 128
QUANTILE = 0.90
TOLERANCE = 0.15


def _recovery_factory():
    return IsolationForest(
        n_estimators=25, random_state=0, threshold_quantile=QUANTILE
    )


@pytest.fixture(scope="module")
def drifted_stream():
    """Covariate drift that ramps over the first half and then holds.

    The plateau matters: after the lifecycle re-fits on post-drift traffic
    the monitor must stop firing, leaving a long stable tail to measure
    post-swap alert quality on.  Labels mark injected anomalies (+9 on all
    features relative to their drifted position) that stay separable before
    and after the shift.
    """
    rng = np.random.default_rng(7)
    n, n_features = 6144, 8
    half = n // 2
    train = rng.normal(size=(2000, n_features))
    base = rng.normal(size=(n, n_features))
    X = base.copy()
    ramp = inject_drift(
        base[:half], strength=6.0, fraction_of_features=0.5, random_state=3
    )
    X[:half] = ramp
    X[half:] = base[half:] + (ramp[-1] - base[half - 1])
    y = (rng.random(n) < 0.03).astype(np.int64)
    X[y == 1] += 9.0
    detector = _recovery_factory().fit(train)
    return train, X, y, detector


class TestEndToEndRecovery:
    def test_sequential_drift_refit_recovers(self, drifted_stream, tmp_path):
        train, X, y, detector = drifted_stream
        registry = ModelRegistry(tmp_path)
        registry.publish(detector, "ids")
        manager = LifecycleManager(
            FullRefit(_recovery_factory),
            buffer=WindowBuffer(1024),
            registry=registry,
            model_name="ids",
            min_refit_rows=256,
        )
        monitor = DriftMonitor(window=512, min_samples=256, cooldown=4)
        monitor.set_reference(detector.score_samples(train), train)
        service = DetectionService(
            detector,
            threshold="rolling",
            rolling_window=1024,
            rolling_quantile=QUANTILE,
            min_rolling=64,
            drift_monitor=monitor,
            lifecycle=manager,
        )
        results = [
            service.process_batch(X[start : start + BATCH])
            for start in range(0, X.shape[0], BATCH)
        ]

        assert service.n_drift_events_ >= 1
        refits = [e for e in manager.events if e.action == "refit" and e.swapped]
        assert refits, [e.action for e in manager.events]
        assert service.epoch_ >= 1
        # republished: every accepted refit is a new registry version
        assert registry.versions("ids")[-1] == refits[-1].published_version

        # Judge the tail scored entirely by the final model.
        start = next(
            i for i, r in enumerate(results) if r.model_epoch == service.epoch_
        )
        lo = start * BATCH
        assert lo < X.shape[0] - 8 * BATCH, "swap settled too late to judge the tail"
        predictions = np.concatenate([r.predictions for r in results])[lo:]
        precision = precision_score(y[lo:], predictions)
        recall = recall_score(y[lo:], predictions)
        # ... against a model fit directly on post-drift clean data
        tail_X, tail_y = X[lo:], y[lo:]
        reference = _recovery_factory().fit(tail_X[tail_y == 0])
        ref_predictions = (
            reference.score_samples(tail_X) > reference.threshold_
        ).astype(np.int64)
        assert recall >= recall_score(tail_y, ref_predictions) - TOLERANCE
        assert precision >= precision_score(tail_y, ref_predictions) - TOLERANCE
        # and the recovery is attributable to the refit: the stale pre-drift
        # model flags nearly every drifted-normal row on the same tail
        stale = (detector.score_samples(tail_X) > detector.threshold_).astype(np.int64)
        assert precision > precision_score(tail_y, stale) + 0.1
