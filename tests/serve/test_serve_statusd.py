"""Live introspection endpoint and heartbeat watchdog.

Curl-equivalent coverage for ``repro serve --status-port``: ``/metrics``
must be valid Prometheus text exposition rendered from the service's own
snapshot, ``/health`` must flip to ``503 NOT_OK`` when the stream stalls
past the heartbeat deadline (and back after a beat), ``/status`` must serve
the operator JSON, and a scrape must record nothing in the service
registry, whose counters are deterministic per stream.  The ``stall``
fault clause is exercised alongside.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve.faults import FaultInjector
from repro.serve.telemetry import (
    HeartbeatWatchdog,
    MetricsRegistry,
    StatusServer,
    render_prometheus,
)

pytestmark = pytest.mark.serve


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.headers.get("Content-Type", ""), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type", ""), err.read()


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestHeartbeatWatchdog:
    def test_flips_after_the_deadline_and_recovers_on_beat(self):
        clock = _FakeClock()
        watchdog = HeartbeatWatchdog(2.0, clock=clock)
        assert watchdog.healthy()
        clock.now = 2.5
        assert not watchdog.healthy()
        assert watchdog.seconds_since_beat() == pytest.approx(2.5)
        watchdog.beat()
        assert watchdog.healthy()
        assert watchdog.n_beats == 1

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            HeartbeatWatchdog(0.0)


class TestExposition:
    @pytest.fixture()
    def registry(self):
        registry = MetricsRegistry()
        registry.counter("pipeline.rows", unit="rows").inc(42)
        hist = registry.histogram("stage.batch.seconds")
        for value in (1e-4, 2e-3, 5e-2):
            hist.observe(value)
        return registry

    def test_counters_gain_total_suffix_and_sanitized_names(self, registry):
        text = render_prometheus(registry.snapshot())
        assert "repro_pipeline_rows_total 42" in text
        assert "# TYPE repro_pipeline_rows_total counter" in text
        assert text.endswith("\n")
        assert "." not in [line.split()[0] for line in text.splitlines()
                           if line and not line.startswith("#")][0]

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self, registry):
        text = render_prometheus(registry.snapshot())
        buckets = [
            line for line in text.splitlines()
            if line.startswith("repro_stage_batch_seconds_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)  # cumulative, monotone
        assert buckets[-1].startswith(
            'repro_stage_batch_seconds_bucket{le="+Inf"}'
        )
        assert counts[-1] == 3
        assert "repro_stage_batch_seconds_count 3" in text
        assert "repro_stage_batch_seconds_sum" in text

    def test_render_is_pure(self, registry):
        snapshot = registry.snapshot()
        assert render_prometheus(snapshot) == render_prometheus(snapshot)

    def test_empty_snapshot_renders_empty_document(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == "\n"


class TestStatusServer:
    @pytest.fixture()
    def setup(self):
        registry = MetricsRegistry()
        registry.counter("pipeline.batches", unit="batches").inc(9)
        clock = _FakeClock()
        watchdog = HeartbeatWatchdog(10.0, clock=clock)
        server = StatusServer(
            0,
            snapshot_fn=registry.snapshot,
            status_fn=lambda: {"epoch": 3, "serving_version": "v2"},
            watchdog=watchdog,
        ).start()
        yield server, registry, clock
        server.close()

    def test_metrics_route_serves_prometheus_text(self, setup):
        server, registry, _ = setup
        status, content_type, body = _get(server.url("/metrics"))
        assert status == 200
        assert content_type.startswith("text/plain")
        assert body.decode() == render_prometheus(registry.snapshot())
        assert "repro_pipeline_batches_total 9" in body.decode()

    def test_health_flips_on_stalled_heartbeat_and_recovers(self, setup):
        server, _, clock = setup
        status, _, body = _get(server.url("/health"))
        assert status == 200
        assert json.loads(body)["status"] == "OK"
        clock.now = 11.0  # stalled past the 10 s deadline
        status, _, body = _get(server.url("/health"))
        verdict = json.loads(body)
        assert status == 503
        assert verdict["status"] == "NOT_OK"
        assert verdict["reason"] == "heartbeat deadline exceeded"
        assert verdict["seconds_since_beat"] == pytest.approx(11.0)
        server.watchdog.beat()  # a batch lands
        status, _, body = _get(server.url("/health"))
        assert status == 200
        assert json.loads(body)["n_beats"] == 1

    def test_status_route_merges_operator_payload(self, setup):
        server, _, _ = setup
        status, content_type, body = _get(server.url("/status"))
        assert status == 200
        assert content_type.startswith("application/json")
        payload = json.loads(body)
        assert payload["health"] == "OK"
        assert payload["epoch"] == 3
        assert payload["serving_version"] == "v2"

    def test_unknown_route_is_404(self, setup):
        server, _, _ = setup
        assert _get(server.url("/nope"))[0] == 404

    def test_scrapes_leave_the_service_registry_untouched(self, setup):
        server, registry, _ = setup
        before = registry.snapshot()
        for route in ("/metrics", "/health", "/status", "/nope"):
            _get(server.url(route))
        assert registry.snapshot() == before


class TestStallFault:
    def test_spec_parses_and_describes(self):
        injector = FaultInjector.from_spec("stall@batch=1,seconds=0.25")
        assert injector.stall_batch == 1
        assert injector.stall_seconds == pytest.approx(0.25)
        assert "stalls 0.25s before batch 1" in injector.describe()

    @pytest.mark.parametrize(
        "spec",
        ["stall", "stall@seconds=1", "stall@batch=1,seconds=-1",
         "stall@batch=1,color=red"],
    )
    def test_bad_specs_are_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultInjector.from_spec(spec)

    def test_stalled_stream_trips_the_watchdog(self):
        injector = FaultInjector.from_spec("stall@batch=1,seconds=0.25")
        watchdog = HeartbeatWatchdog(0.1)  # real monotonic clock
        batches = [np.zeros((4, 2)), np.ones((4, 2))]
        healths, out = [], []
        for X in injector.corrupt_stream(batches):
            healths.append(watchdog.healthy())
            watchdog.beat()
            out.append(X)
        # Batch 0 arrives inside the deadline; the 0.25 s stall before
        # batch 1 exceeds it — exactly what /health reports mid-stall.
        assert healths == [True, False]
        for X, ref in zip(out, batches):  # a stall delays, never mutates
            np.testing.assert_array_equal(X, ref)


class TestCloseBeforeStart:
    def test_close_on_never_started_server_returns_promptly(self):
        """Regression: close() used to call shutdown() unconditionally.

        ``socketserver.shutdown`` blocks on an event only ``serve_forever``
        ever sets, so closing a constructed-but-never-started server (the
        path taken when ``serve`` fails between building the status server
        and starting it) deadlocked forever.  close() must return and
        release the eagerly bound listening socket.
        """
        import socket
        import threading

        server = StatusServer(0, snapshot_fn=lambda: {})
        port = server.port
        done = threading.Event()

        def _close():
            server.close()
            done.set()

        worker = threading.Thread(target=_close, daemon=True)
        worker.start()
        worker.join(timeout=5.0)
        assert done.is_set(), "close() on a never-started StatusServer hung"
        # The listening socket is gone: the port is rebindable again.
        probe = socket.socket()
        try:
            probe.bind(("127.0.0.1", port))
        finally:
            probe.close()

    def test_close_after_start_still_idempotent_shape(self):
        server = StatusServer(0, snapshot_fn=lambda: {}).start()
        server.close()
        # A second close on the stopped server must not deadlock either.
        server.close()
