"""Trace ids: deterministic span trees for a served stream.

The contracts under test (see :mod:`repro.serve.telemetry.context`):

* span ids come from per-context counters, never ``random`` or the wall
  clock — the same stream served twice yields the same span tree, ids
  included;
* a served stream's trace carries the id triple on every span, never mints
  an id twice, and nests one ``score`` span under every ``batch`` span;
* :class:`SpanTracer` never leaves a truncated trailing line — a failed
  write and ``close()`` truncate back to the last complete record (the
  reader side of the contract is in ``test_serve_jsonl.py``);
* one traced run through every serving layer emits exactly the pipeline
  stages listed in :data:`EXPECTED_STAGES`: a misspelled or missing
  ``trace_span`` changes the set.
"""

from __future__ import annotations

import json
import pickle
import urllib.request
from collections import Counter

import numpy as np
import pytest

from repro.datasets.streaming import FlowStream
from repro.novelty import IsolationForest
from repro.serve.drift import DriftMonitor
from repro.serve.lifecycle import FullRefit, LifecycleManager, WindowBuffer
from repro.serve.registry import ModelRegistry
from repro.serve.service import DetectionService
from repro.serve.sinks import ListSink, read_events
from repro.serve.telemetry import (
    HeartbeatWatchdog,
    SpanBuffer,
    SpanTracer,
    StatusServer,
    TraceContext,
    trace_span,
)

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def fitted(tiny_dataset):
    normal = tiny_dataset.normal_data()
    detector = IsolationForest(n_estimators=10, random_state=0).fit(normal)
    return tiny_dataset, detector


def _stream(dataset):
    return FlowStream(dataset, batch_size=64, drift_strength=2.0, random_state=0)


class TestTraceContext:
    def test_root_allocates_dense_counter_ids(self):
        ctx = TraceContext.root(7)
        assert ctx.trace_id == "t0007"
        assert ctx.span_id is None
        assert [ctx.allocate() for _ in range(3)] == ["1", "2", "3"]

    def test_child_descends_under_an_allocated_span(self):
        root = TraceContext.root(0)
        span_id = root.allocate()
        child = root.child(span_id)
        assert child.trace_id == root.trace_id
        assert child.span_id == span_id
        assert [child.allocate() for _ in range(2)] == ["1.1", "1.2"]

    def test_pickle_roundtrip_preserves_the_counter(self):
        ctx = TraceContext.root(3)
        ctx.allocate()
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.trace_id == "t0003"
        assert clone.allocate() == ctx.allocate() == "2"


class TestTraceSpanIds:
    def test_nested_spans_carry_the_id_triple(self):
        buffer = SpanBuffer()
        ctx = TraceContext.root(3)
        with trace_span("batch", tracer=buffer, context=ctx, batch_index=0) as outer:
            with trace_span("score", tracer=buffer, context=outer.ctx, rows=5):
                pass
        # Records land at __exit__: the child is written before its parent.
        score, batch = buffer.spans
        assert score["stage"] == "score"
        assert score["trace_id"] == "t0003"
        assert score["span_id"] == "1.1"
        assert score["parent_span_id"] == "1"
        assert batch["span_id"] == "1"
        assert "parent_span_id" not in batch  # root-context span
        assert batch["batch_index"] == 0

    def test_without_a_context_spans_have_no_ids(self):
        buffer = SpanBuffer()
        with trace_span("score", tracer=buffer) as span:
            assert span.ctx is None
        assert "span_id" not in buffer.spans[0]
        assert "trace_id" not in buffer.spans[0]

    def test_failing_span_records_ids_and_error(self):
        buffer = SpanBuffer()
        ctx = TraceContext.root(0)
        with pytest.raises(RuntimeError):
            with trace_span("score", tracer=buffer, context=ctx):
                raise RuntimeError("boom")
        assert buffer.spans[0]["span_id"] == "1"
        assert buffer.spans[0]["error"] == "RuntimeError"


class TestTracerTruncationSafety:
    def test_close_truncates_a_partial_trailing_line(self, tmp_path, torn_write):
        path = tmp_path / "trace.jsonl"
        tracer = SpanTracer(str(path))
        tracer.record({"stage": "a", "seconds": 0.0})
        # A write torn mid-line whose own truncate-back fails too: the torn
        # bytes stay on disk until close() cuts them off.
        torn_write.arm(truncate_fails=True)
        with pytest.raises(OSError):
            tracer.record({"stage": "torn", "seconds": 0.0})
        assert not path.read_text().endswith("\n")
        tracer.close()
        text = path.read_text()
        assert text.endswith("\n")
        assert [json.loads(line)["stage"] for line in text.splitlines()] == ["a"]

    def test_interrupted_run_leaves_every_completed_span_parseable(
        self, fitted, tmp_path
    ):
        dataset, detector = fitted
        normal = dataset.normal_data()
        path = tmp_path / "trace.jsonl"
        tracer = SpanTracer(str(path))
        service = DetectionService(detector, threshold="auto", tracer=tracer)

        def interrupted_stream():
            yield normal[:32]
            yield normal[32:64]
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            list(service.process(interrupted_stream()))
        tracer.close()
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans  # the two completed batches left their spans
        assert Counter(s["stage"] for s in spans)["batch"] == 2


class TestSequentialTraceTree:
    @pytest.fixture(scope="class")
    def spans(self, fitted, tmp_path_factory):
        dataset, detector = fitted
        path = tmp_path_factory.mktemp("traces") / "sequential.jsonl"
        with SpanTracer(str(path)) as tracer:
            service = DetectionService(detector, threshold="auto", tracer=tracer)
            list(service.process(_stream(dataset)))
        return read_events(path)

    def test_every_span_carries_the_id_triple(self, spans):
        assert spans
        for span in spans:
            assert span["trace_id"] == "t0000"
            assert span["span_id"]

    def test_span_ids_are_unique_within_the_run(self, spans):
        ids = [(s["trace_id"], s["span_id"]) for s in spans]
        assert len(ids) == len(set(ids))

    def test_every_batch_span_wraps_one_score_span(self, spans):
        stages = Counter(s["stage"] for s in spans)
        assert stages["batch"] > 0
        assert stages["score"] == stages["batch"]

    def test_two_runs_produce_the_same_span_tree_ids_included(self, fitted):
        dataset, detector = fitted

        def serve_once():
            tracer = SpanBuffer()
            service = DetectionService(detector, threshold="auto", tracer=tracer)
            list(service.process(_stream(dataset)))
            return [
                (s["stage"], s["trace_id"], s["span_id"],
                 s.get("parent_span_id"), s.get("batch_index"), s.get("rows"))
                for s in tracer.spans
            ]

        first = serve_once()
        assert len(first) > 1
        assert serve_once() == first


#: Every stage a traced serve run emits: the service's per-batch pipeline,
#: the lifecycle's refit path, and the status endpoint's span per route.
EXPECTED_STAGES = frozenset(
    {
        "batch",
        "quarantine_scan",
        "score",
        "threshold_update",
        "drift_check",
        "sink_emit",
        "refit",
        "gate",
        "registry_publish",
        "heartbeat",
        "metrics_render",
        "status_render",
    }
)


def _histogram_stages(snapshot) -> set[str]:
    """Stage names of the ``stage.<stage>.seconds`` histograms in a snapshot."""
    return {
        name[len("stage."):-len(".seconds")]
        for name in snapshot["histograms"]
        if name.startswith("stage.") and name.endswith(".seconds")
    }


class TestStageSet:
    """A drifting stream served with every layer attached, traced once."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        rng = np.random.default_rng(0)
        detector = IsolationForest(n_estimators=15, random_state=0).fit(
            rng.normal(size=(800, 5))
        )
        registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
        registry.publish(detector, "ids")
        lifecycle = LifecycleManager(
            FullRefit(lambda: IsolationForest(n_estimators=15, random_state=0)),
            buffer=WindowBuffer(512),
            registry=registry,
            model_name="ids",
            min_refit_rows=64,
        )
        monitor = DriftMonitor(window=256, min_samples=128, cooldown=4)
        reference = rng.normal(size=(600, 5))
        monitor.set_reference(detector.score_samples(reference), reference)
        tracer = SpanBuffer()
        service = DetectionService(
            detector,
            threshold="rolling",
            min_rolling=32,
            drift_monitor=monitor,
            lifecycle=lifecycle,
            sinks=[ListSink()],
            tracer=tracer,
        )
        watchdog = HeartbeatWatchdog(30.0)
        service.heartbeat = watchdog
        pre = rng.normal(size=(512, 5))
        post = rng.normal(size=(1024, 5)) + 5.0
        with StatusServer(
            0,
            snapshot_fn=service.metrics_snapshot,
            status_fn=lambda: {"n_batches": service.n_batches_},
            watchdog=watchdog,
        ) as server:
            for X in [*np.split(pre, 4), *np.split(post, 8)]:
                service.process_batch(X)
            for route in ("/metrics", "/health", "/status"):
                with urllib.request.urlopen(server.url(route), timeout=5) as resp:
                    assert resp.status == 200
        return service, lifecycle, tracer, server

    def test_the_run_reached_every_layer(self, run):
        service, lifecycle, _, _ = run
        assert service.n_alerts_ > 0
        assert service.n_drift_events_ > 0
        assert any(event.published_version for event in lifecycle.events)

    def test_run_emits_exactly_the_expected_stages(self, run):
        service, _, tracer, server = run
        traced = {span["stage"] for span in tracer.spans}
        assert traced == _histogram_stages(service.metrics_snapshot())
        scraped = _histogram_stages(server.telemetry.snapshot())
        assert traced | scraped == EXPECTED_STAGES

    def test_refit_runs_outside_the_batch_spans(self, run):
        """A ``batch`` span times serving only: the drift reaction follows it."""
        _, _, tracer, _ = run
        batches = [
            (span["t_offset_s"], span["t_offset_s"] + span["seconds"])
            for span in tracer.spans
            if span["stage"] == "batch"
        ]
        refits = [span for span in tracer.spans if span["stage"] == "refit"]
        assert batches and refits
        for refit in refits:
            start = refit["t_offset_s"]
            end = start + refit["seconds"]
            assert not any(lo < end and start < hi for lo, hi in batches)


class TestCliTracerCleanup:
    def test_tracer_closed_when_stream_raises(self, tmp_path, monkeypatch):
        """An exception out of the serve loop must still close the tracer.

        A torn run used to leak the span-file handle: the happy path closed
        the tracer *after* printing the span count, so an application error
        escaping ``_serve_stream`` skipped the close entirely.  The CLI now
        closes the tracer on the exception path before re-raising.
        """
        import repro.serve.cli as cli_mod

        closed = []
        original_close = SpanTracer.close

        def recording_close(self):
            closed.append(self)
            return original_close(self)

        def exploding_stream(service, stream):
            raise RuntimeError("application error escaping the serve loop")

        monkeypatch.setattr(SpanTracer, "close", recording_close)
        monkeypatch.setattr(cli_mod, "_serve_stream", exploding_stream)

        trace_file = tmp_path / "trace.jsonl"
        with pytest.raises(RuntimeError, match="escaping the serve loop"):
            cli_mod.main([
                "serve",
                "--dataset", "wustl_iiot",
                "--scale", "0.0015",
                "--detector", "mahalanobis",
                "--trace-file", str(trace_file),
            ])
        assert closed, "tracer.close() never ran on the exception path"
        # close() truncates to the last complete record; a zero-span run may
        # never have materialised the file, but if it did it must be readable.
        if trace_file.exists():
            assert read_events(trace_file) == []
