"""Telemetry layer: metrics primitives, span tracing, service wiring.

The contracts under test (see :mod:`repro.serve.telemetry`):

* instruments are O(1) memory with exact count/sum/min/max;
* ``trace_span`` records wall time + row counts into the registry and
  (optionally) one JSONL record per span, and never alters control flow;
* the serving service populates pipeline counters/histograms that agree
  with their own ``ServiceReport``.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.datasets.streaming import FlowStream
from repro.novelty import IsolationForest
from repro.serve.drift import DriftMonitor
from repro.serve.faults import SinkDisabled
from repro.serve.service import DetectionService
from repro.serve.sinks import ListSink
from repro.serve.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanTracer,
    log_spaced_buckets,
    trace_span,
)
from repro.serve.telemetry.metrics import DISABLED


@pytest.fixture(scope="module")
def stream_setup():
    dataset = load_dataset("wustl_iiot", scale=0.0015, seed=0)
    normal = dataset.normal_data()
    detector = IsolationForest(n_estimators=20, random_state=0).fit(normal)
    return dataset, normal, detector


class TestPrimitives:
    def test_log_spaced_buckets(self):
        bounds = log_spaced_buckets(1e-6, 100.0, 41)
        assert len(bounds) == 41
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] == pytest.approx(100.0)
        assert list(bounds) == sorted(bounds)
        with pytest.raises(ValueError):
            log_spaced_buckets(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            log_spaced_buckets(1.0, 2.0, 1)

    def test_counter(self):
        counter = Counter("c", unit="rows")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.export() == {"value": 42, "unit": "rows"}

    def test_gauge_holds_the_last_set_value(self):
        gauge = Gauge("g", unit="mass")
        gauge.set(3.5)
        gauge.set(1)
        assert gauge.export() == {"value": 1.0, "unit": "mass"}

    def test_histogram_exact_aggregates_and_percentiles(self):
        hist = Histogram("h", unit="seconds")
        for value in (1e-4, 2e-4, 3e-4, 4e-4, 1e-2):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(0.011)
        assert hist.min == pytest.approx(1e-4)
        assert hist.max == pytest.approx(1e-2)
        # Percentiles are bucket estimates clamped to the observed range.
        assert hist.min <= hist.percentile(0.5) <= hist.max
        assert hist.percentile(0.99) == pytest.approx(1e-2, rel=0.6)
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_histogram_single_value_reports_it_everywhere(self):
        hist = Histogram("h", unit="seconds")
        hist.observe(0.025)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert hist.percentile(q) == pytest.approx(0.025)

    def test_empty_histogram_exports_zeros(self):
        export = Histogram("h").export()
        assert export["count"] == 0
        assert export["min"] == 0.0 and export["max"] == 0.0
        assert export["p50"] == 0.0

    def test_histogram_overflow_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(1e9)
        assert hist.counts[-1] == 1
        assert hist.percentile(0.5) == pytest.approx(1e9)


class TestRegistry:
    def test_get_or_create_and_kind_conflicts(self):
        registry = MetricsRegistry()
        counter = registry.counter("pipeline.rows", unit="rows")
        assert registry.counter("pipeline.rows") is counter
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("pipeline.rows")
        assert "pipeline.rows" in registry
        assert registry.names() == ["pipeline.rows"]

    def test_snapshot_is_json_serializable_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.histogram("h").observe(0.5)
        snapshot = registry.snapshot()
        json.dumps(snapshot)
        assert list(snapshot["counters"]) == ["a", "b"]

    def test_registry_pickles(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        registry.histogram("h").observe(2e-3)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == registry.snapshot()

    def test_disabled_registry_is_inert(self):
        DISABLED.counter("c").inc(5)
        DISABLED.gauge("g").set(1.0)
        DISABLED.histogram("h").observe(0.5)
        assert DISABLED.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert not DISABLED.enabled


class TestTraceSpan:
    def test_records_seconds_and_rows(self):
        registry = MetricsRegistry()
        with trace_span("score", metrics=registry, rows=128):
            pass
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["stage.score.seconds"]["count"] == 1
        assert snapshot["counters"]["stage.score.rows"]["value"] == 128

    def test_none_metrics_is_noop(self):
        with trace_span("score", rows=10):
            pass  # must not raise nor require a registry

    def test_tracer_writes_jsonl_and_propagates_errors(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        registry = MetricsRegistry()
        with SpanTracer(path) as tracer:
            with trace_span("a", metrics=registry, tracer=tracer, rows=5,
                            batch_index=2):
                pass
            with pytest.raises(RuntimeError):
                with trace_span("b", metrics=registry, tracer=tracer):
                    raise RuntimeError("boom")
            assert tracer.n_spans == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [span["stage"] for span in lines] == ["a", "b"]
        assert lines[0]["rows"] == 5
        assert lines[0]["batch_index"] == 2
        assert lines[0]["t_offset_s"] >= 0.0
        assert lines[1]["error"] == "RuntimeError"
        # The failing span still landed in the registry.
        assert registry.snapshot()["histograms"]["stage.b.seconds"]["count"] == 1


class TestServiceTelemetry:
    def test_sequential_counters_match_report(self, stream_setup):
        dataset, normal, detector = stream_setup
        monitor = DriftMonitor().set_reference(
            detector.score_samples(normal), normal
        )
        service = DetectionService(
            detector, threshold="auto", drift_monitor=monitor
        )
        stream = FlowStream(
            dataset, batch_size=97, drift_strength=1.5, random_state=0
        )
        list(service.process(stream))
        report = service.report()
        snapshot = service.metrics_snapshot()
        counters = snapshot["counters"]
        assert counters["pipeline.batches"]["value"] == report.n_batches
        assert counters["pipeline.rows"]["value"] == report.n_samples
        assert counters["pipeline.alerts"]["value"] == report.n_alerts
        hist = snapshot["histograms"]["pipeline.batch_seconds"]
        assert hist["count"] == report.n_batches
        # The report's percentile fields read off the same histogram.
        assert report.batch_latency_p50_s == pytest.approx(hist["p50"])
        assert report.batch_latency_p99_s == pytest.approx(hist["p99"])
        assert "batch latency: p50" in report.summary()
        stages = snapshot["histograms"]
        for stage in ("quarantine_scan", "score", "drift_check"):
            assert stages[f"stage.{stage}.seconds"]["count"] == report.n_batches

    def test_throughput_uses_measured_batch_time(self, stream_setup):
        dataset, _, detector = stream_setup
        service = DetectionService(detector, threshold="auto")
        stream = FlowStream(dataset, batch_size=97, random_state=0)
        list(service.process(stream))
        report = service.report()
        hist = service.telemetry.histogram("pipeline.batch_seconds")
        assert report.throughput_samples_per_sec == pytest.approx(
            report.n_samples / hist.sum
        )

    def test_disabled_telemetry_records_nothing(self, stream_setup):
        dataset, _, detector = stream_setup
        service = DetectionService(detector, threshold="auto", telemetry=DISABLED)
        stream = FlowStream(dataset, batch_size=97, random_state=0)
        results = list(service.process(stream))
        assert results
        assert service.metrics_snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        # The report still works off the wall-clock timer fallback.
        assert service.report().throughput_samples_per_sec > 0

    def test_disabled_sink_shows_in_the_report(self, stream_setup):
        class Broken:
            def emit(self, event):
                raise OSError("disk full")

            def close(self):
                pass

        dataset, _, detector = stream_setup
        healthy = ListSink()
        service = DetectionService(
            detector, threshold="auto", sinks=[Broken(), healthy]
        )
        stream = FlowStream(dataset, batch_size=97, random_state=0)
        report = service.run(stream)
        assert report.n_alerts > 0
        assert report.n_disabled_sinks == 1
        assert report.to_dict()["n_disabled_sinks"] == 1
        assert "disabled sinks: 1" in report.summary()
        notices = [e for e in healthy.events if isinstance(e, SinkDisabled)]
        assert [n.sink for n in notices] == ["Broken"]

