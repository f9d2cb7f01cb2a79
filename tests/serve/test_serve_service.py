"""DetectionService: chunked scoring equivalence, thresholds, alerts, drift."""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.datasets.streaming import FlowStream
from repro.novelty import IsolationForest, LocalOutlierFactor, MahalanobisDetector
from repro.serve.cli import DETECTOR_FACTORIES
from repro.serve.drift import DriftMonitor
from repro.serve.lifecycle import LifecycleManager, NoRefit
from repro.serve.registry import ModelRegistry
from repro.serve.service import Alert, DetectionService, DriftEvent
from repro.serve.sinks import CallbackSink, JsonlSink, ListSink


@pytest.fixture(scope="module")
def stream_setup():
    dataset = load_dataset("wustl_iiot", scale=0.0015, seed=0)
    normal = dataset.normal_data()
    detector = IsolationForest(n_estimators=20, random_state=0).fit(normal)
    return dataset, normal, detector


class TestChunkedEquivalence:
    @pytest.mark.parametrize("micro_batch_size", [16, 100, 1 << 20])
    def test_chunked_matches_one_shot(self, stream_setup, micro_batch_size):
        dataset, _, detector = stream_setup
        stream = FlowStream(dataset, batch_size=130, drift_strength=1.5, random_state=0)
        service = DetectionService(
            detector, threshold="auto", micro_batch_size=micro_batch_size
        )
        chunked = np.concatenate([result.scores for result in service.process(stream)])
        np.testing.assert_array_equal(chunked, detector.score_samples(stream.X))

    def test_chunked_matches_one_shot_mahalanobis(self, stream_setup):
        # einsum, not BLAS: every row's score is independent of the batch.
        dataset, normal, _ = stream_setup
        detector = MahalanobisDetector().fit(normal)
        stream = FlowStream(dataset, batch_size=97, random_state=1)
        service = DetectionService(detector, threshold="auto", micro_batch_size=33)
        chunked = np.concatenate([result.scores for result in service.process(stream)])
        np.testing.assert_array_equal(chunked, detector.score_samples(stream.X))

    def test_chunked_matches_one_shot_lof(self, stream_setup):
        # Distance-based scoring goes through BLAS matmuls whose accumulation
        # order can shift by one ulp when the row-block shape changes, so
        # different micro-batch boundaries are equivalent to tight tolerance
        # rather than bit-exact (same-boundary scoring, e.g. after a snapshot
        # reload, stays bit-exact — covered by the snapshot tests).
        dataset, normal, _ = stream_setup
        detector = LocalOutlierFactor(n_neighbors=5, random_state=0).fit(normal)
        stream = FlowStream(dataset, batch_size=97, random_state=1)
        service = DetectionService(detector, threshold="auto", micro_batch_size=33)
        chunked = np.concatenate([result.scores for result in service.process(stream)])
        np.testing.assert_allclose(
            chunked, detector.score_samples(stream.X), rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("name", sorted(DETECTOR_FACTORIES))
    def test_chunked_matches_one_shot_every_cli_detector(self, stream_setup, name):
        # Every detector `repro serve --detector` offers, in its served
        # configuration.  Tolerance as for LOF: BLAS-backed scorers may move
        # by one ulp when the micro-batch boundaries change.
        dataset, normal, _ = stream_setup
        detector = DETECTOR_FACTORIES[name]().fit(normal)
        stream = FlowStream(dataset, batch_size=97, drift_strength=1.5, random_state=1)
        service = DetectionService(detector, threshold="auto", micro_batch_size=33)
        results = list(service.process(stream))
        chunked = np.concatenate([result.scores for result in results])
        np.testing.assert_allclose(
            chunked, detector.score_samples(stream.X), rtol=1e-12, atol=1e-12
        )
        assert all(result.threshold == detector.threshold_ for result in results)

    def test_plain_array_iterator_accepted(self, stream_setup):
        _, normal, detector = stream_setup
        batches = [normal[:50], normal[50:120], normal[120:123]]
        service = DetectionService(detector, threshold="auto")
        results = list(service.process(batches))
        assert [r.n_samples for r in results] == [50, 70, 3]
        np.testing.assert_array_equal(
            np.concatenate([r.scores for r in results]),
            detector.score_samples(normal[:123]),
        )


class TestValidateOnce:
    def test_feature_width_fixed_by_first_batch(self, stream_setup):
        _, normal, detector = stream_setup
        service = DetectionService(detector, threshold="auto")
        service.process_batch(normal[:10])
        assert service.n_features_ == normal.shape[1]
        with pytest.raises(ValueError, match="stream started with"):
            service.process_batch(np.zeros((4, normal.shape[1] + 2)))

    def test_non_2d_batch_rejected(self, stream_setup):
        _, _, detector = stream_setup
        service = DetectionService(detector, threshold="auto")
        with pytest.raises(ValueError, match="2-D"):
            service.process_batch(np.zeros(7))


class TestThresholds:
    def test_fixed_threshold(self, stream_setup):
        _, normal, detector = stream_setup
        service = DetectionService(detector, threshold=np.inf)
        result = service.process_batch(normal[:100])
        assert result.n_alerts == 0
        assert result.threshold == np.inf

    def test_nan_threshold_is_rejected(self, stream_setup):
        # No score exceeds NaN: the service would serve without ever alerting.
        _, _, detector = stream_setup
        with pytest.raises(ValueError, match="NaN"):
            DetectionService(detector, threshold=float("nan"))

    def test_auto_uses_detector_default(self, stream_setup):
        _, normal, detector = stream_setup
        service = DetectionService(detector, threshold="auto")
        result = service.process_batch(normal[:100])
        assert result.threshold == detector.threshold_

    def test_auto_requires_fitted_default(self):
        class Bare:
            def score_samples(self, X):
                return np.zeros(X.shape[0])

        service = DetectionService(Bare(), threshold="auto")
        with pytest.raises(RuntimeError, match="threshold"):
            service.process_batch(np.zeros((5, 2)))

    def test_rolling_threshold_follows_score_scale(self, stream_setup):
        _, normal, detector = stream_setup
        service = DetectionService(
            detector,
            threshold="rolling",
            rolling_window=512,
            rolling_quantile=0.9,
            min_rolling=64,
        )
        first = service.process_batch(normal[:40])
        # Warm-up: detector default until min_rolling scores arrived.
        assert first.threshold == detector.threshold_
        for start in range(40, 400, 90):
            # The threshold judging a batch comes from the window *before*
            # that batch (a burst must not raise its own bar), so capture the
            # window ahead of each call.
            pre_window = service._rolling.values().ravel().copy()
            last = service.process_batch(normal[start : start + 90])
        # After warm-up the threshold tracks the rolling 90% quantile of the
        # pre-batch window.
        assert last.threshold == np.quantile(pre_window, 0.9)

    def test_rolling_threshold_is_pre_batch(self, stream_setup):
        # Regression test: a burst of anomalies must be judged against the
        # *prior* window, not against a threshold inflated by its own scores.
        class Passthrough:
            def score_samples(self, X):
                return np.asarray(X[:, 0], dtype=np.float64)

        service = DetectionService(
            Passthrough(),
            threshold="rolling",
            rolling_window=256,
            rolling_quantile=0.9,
            min_rolling=1,
        )
        calm = np.linspace(0.0, 1.0, 100)[:, None]
        service.process_batch(calm)
        burst = np.full((50, 1), 100.0)  # every flow wildly anomalous
        result = service.process_batch(burst)
        # Pre-batch semantics: threshold ~ 0.9 (from the calm window), so the
        # whole burst alerts.  The old self-referential window would have set
        # the threshold to 100.0 and alerted on nothing.
        assert result.threshold == np.quantile(calm.ravel(), 0.9)
        assert result.n_alerts == 50

    def test_rolling_bootstraps_from_first_batch_without_default(self):
        # No fitted threshold_ and an empty window: the very first non-empty
        # batch seeds the rolling threshold from its own scores (one-off
        # bootstrap) instead of raising.
        class Bare:
            def score_samples(self, X):
                return np.asarray(X[:, 0], dtype=np.float64)

        service = DetectionService(Bare(), threshold="rolling", rolling_quantile=0.5)
        scores = np.arange(10, dtype=np.float64)[:, None]
        result = service.process_batch(scores)
        assert result.threshold == np.quantile(scores.ravel(), 0.5)

    def test_alert_rate_roughly_matches_rolling_quantile(self, stream_setup):
        dataset, _, detector = stream_setup
        stream = FlowStream(dataset, batch_size=256, random_state=0)
        service = DetectionService(
            detector, threshold="rolling", rolling_quantile=0.9, min_rolling=64
        )
        report = service.run(stream)
        rate = report.n_alerts / report.n_samples
        assert 0.03 < rate < 0.3  # ~10% by construction, generous margins


class TestEmptyBatches:
    def test_empty_batch_at_stream_start_rolling_no_default(self):
        # Regression test: a zero-row batch used to crash rolling mode at
        # stream start (empty window, no detector default).
        class Bare:
            def score_samples(self, X):
                return np.asarray(X[:, 0], dtype=np.float64)

        service = DetectionService(Bare(), threshold="rolling")
        result = service.process_batch(np.empty((0, 3)))
        assert result.n_samples == 0
        assert result.n_alerts == 0
        assert np.isnan(result.threshold)
        report = service.report()
        assert report.n_batches == 1
        assert report.n_samples == 0

    def test_empty_batches_counted_but_skip_alerts_and_drift(self, stream_setup):
        _, normal, detector = stream_setup
        monitor = DriftMonitor(window=64, threshold=0.5, min_samples=8)
        monitor.set_reference(detector.score_samples(normal), normal)
        service = DetectionService(
            detector, threshold="auto", drift_monitor=monitor
        )
        width = normal.shape[1]
        results = list(
            service.process(
                [np.empty((0, width)), normal[:30], np.empty((0, width)), normal[30:47]]
            )
        )
        assert [r.n_samples for r in results] == [0, 30, 0, 17]
        assert results[0].drift is None and results[2].drift is None
        report = service.report()
        assert report.n_batches == 4
        assert report.n_samples == 47
        # Scores of the non-empty batches are unaffected by the empty ones.
        np.testing.assert_array_equal(
            np.concatenate([r.scores for r in results]),
            detector.score_samples(normal[:47]),
        )

    def test_empty_batch_fixes_feature_width(self, stream_setup):
        _, normal, detector = stream_setup
        service = DetectionService(detector, threshold="auto")
        service.process_batch(np.empty((0, normal.shape[1])))
        assert service.n_features_ == normal.shape[1]
        with pytest.raises(ValueError, match="stream started with"):
            service.process_batch(np.zeros((4, normal.shape[1] + 2)))


class TestAlertsAndSinks:
    def test_alerts_carry_global_indices(self, stream_setup):
        _, normal, detector = stream_setup
        sink = ListSink()
        service = DetectionService(detector, threshold=-np.inf, sinks=[sink])
        service.process_batch(normal[:10])
        service.process_batch(normal[10:25])
        alerts = [event for event in sink.events if isinstance(event, Alert)]
        assert len(alerts) == 25  # everything above -inf
        assert [a.sample_index for a in alerts] == list(range(25))
        assert alerts[-1].batch_index == 1

    def test_jsonl_sink_writes_valid_lines(self, stream_setup, tmp_path):
        _, normal, detector = stream_setup
        path = tmp_path / "events.jsonl"
        service = DetectionService(detector, threshold=-np.inf, sinks=[JsonlSink(path)])
        service.run([normal[:8]])
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 8
        assert all(line["type"] == "alert" for line in lines)

    def test_callback_sink(self, stream_setup):
        _, normal, detector = stream_setup
        seen = []
        service = DetectionService(
            detector, threshold=-np.inf, sinks=[CallbackSink(seen.append)]
        )
        service.process_batch(normal[:5])
        assert len(seen) == 5


class TestDriftIntegration:
    def test_drift_fires_and_reloads_from_registry(self, stream_setup, tmp_path):
        dataset, normal, detector = stream_setup
        registry = ModelRegistry(tmp_path)
        registry.publish(detector, "ids")

        monitor = DriftMonitor(window=512, threshold=0.5, min_samples=128)
        monitor.set_reference(detector.score_samples(normal), normal)
        sink = ListSink()
        lifecycle = LifecycleManager(NoRefit(), registry=registry, model_name="ids")

        service = DetectionService(
            detector,
            threshold="auto",
            drift_monitor=monitor,
            sinks=[sink],
            lifecycle=lifecycle,
        )
        stream = FlowStream(dataset, batch_size=200, drift_strength=3.0, random_state=0)
        report = service.run(stream)
        assert report.n_drift_events > 0
        assert len(lifecycle.events) == report.n_drift_events
        drift_events = [e for e in sink.events if isinstance(e, DriftEvent)]
        assert len(drift_events) == report.n_drift_events
        # The first firing reloads v1; every later one sees v1 serving.
        actions = [event.action for event in lifecycle.events]
        assert actions == ["reload"] + ["skipped"] * (len(actions) - 1)
        assert service.epoch_ == 1
        # The reloaded detector is a fresh instance from the registry.
        assert service.detector is not detector
        assert isinstance(service.detector, IsolationForest)

    def test_reload_with_rescaled_model_does_not_refire_forever(self, stream_setup):
        # A retrained model whose scores live on a different scale must not be
        # judged against the old model's score reference after a hot swap —
        # that would re-fire drift (and re-reload) on every window.
        _, normal, detector = stream_setup

        class Rescaled:
            def __init__(self, base):
                self.base = base
                self.threshold_ = base.threshold_ * 100.0

            def score_samples(self, X):
                return self.base.score_samples(X) * 100.0

        rng = np.random.default_rng(0)
        monitor = DriftMonitor(window=256, threshold=0.5, min_samples=64, cooldown=0)
        monitor.set_reference(detector.score_samples(normal), None)
        monitor.track_features = False

        class OneNewerVersion:
            """Registry stand-in whose latest version, v2, is the rescaled model."""

            def resolve(self, name, version=None):
                return SimpleNamespace(version=2)

            def load(self, name, version=None):
                return Rescaled(detector)

        lifecycle = LifecycleManager(
            NoRefit(),
            registry=OneNewerVersion(),
            model_name="ids",
            serving_version=1,
        )
        service = DetectionService(
            detector, threshold="auto", drift_monitor=monitor, lifecycle=lifecycle
        )
        # Force one firing, then keep streaming stationary data: the swapped
        # model's x100 scores must not re-trigger against the stale reference.
        shifted = normal + 8.0 * rng.normal(size=normal.shape).std()
        for start in range(0, 400, 100):
            service.process_batch(shifted[start : start + 100])
        assert service.n_drift_events_ == 1
        assert [event.action for event in lifecycle.events] == ["reload"]
        assert isinstance(service.detector, Rescaled)
        for start in range(0, 1200, 100):
            service.process_batch(shifted[start % 400 : start % 400 + 100])
        # reference re-bootstrapped on the new scale: no re-fire, no re-reload
        assert service.n_drift_events_ == 1
        assert len(lifecycle.events) == 1

    def test_no_drift_on_stationary_stream(self, stream_setup):
        dataset, normal, detector = stream_setup
        monitor = DriftMonitor(window=512, threshold=0.5, min_samples=128)
        monitor.set_reference(detector.score_samples(normal), normal)
        service = DetectionService(detector, threshold="auto", drift_monitor=monitor)
        stream = FlowStream(dataset, batch_size=200, drift_strength=0.0, random_state=0)
        report = service.run(stream)
        assert report.n_drift_events == 0


class TestReport:
    def test_counters_and_throughput(self, stream_setup):
        dataset, _, detector = stream_setup
        stream = FlowStream(dataset, batch_size=150, random_state=0)
        service = DetectionService(detector, threshold="auto")
        report = service.run(stream)
        assert report.n_samples == dataset.n_samples
        assert report.n_batches == stream.n_batches
        assert report.throughput_samples_per_sec > 0
        assert report.total_time_s > 0
        assert report.mean_batch_latency_s > 0
        payload = report.to_dict()
        assert payload["n_samples"] == dataset.n_samples
        assert "flows" in report.summary()

    def test_empty_stream_report_is_finite_and_json_strict(self, stream_setup):
        _, _, detector = stream_setup
        service = DetectionService(detector, threshold="auto")
        report = service.run([])
        assert report.n_samples == 0
        assert report.throughput_samples_per_sec == 0.0
        json.dumps(report.to_dict(), allow_nan=False)  # strict JSON round-trips

    def test_validation(self, stream_setup):
        _, _, detector = stream_setup
        with pytest.raises(ValueError):
            DetectionService(detector, threshold="banana")
        with pytest.raises(ValueError):
            DetectionService(detector, micro_batch_size=0)
        with pytest.raises(ValueError):
            DetectionService(detector, rolling_quantile=1.5)
