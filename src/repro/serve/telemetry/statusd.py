"""Live introspection endpoint for a running serve loop (``--status-port``).

:class:`StatusServer` runs a stdlib :class:`~http.server.ThreadingHTTPServer`
on a daemon thread next to the scoring loop and answers three read-only
routes:

* ``/metrics`` — Prometheus text exposition rendered from the service's
  ``metrics_snapshot()`` (via
  :func:`~repro.serve.telemetry.exposition.render_prometheus`);
* ``/health`` — ``200 OK`` / ``503 NOT_OK`` from the
  :class:`HeartbeatWatchdog` (no batch completed within the deadline);
* ``/status`` — a JSON summary (epoch, serving version, disabled sinks)
  from a caller-supplied callback.

The server never *writes* service state: it holds two callables and a
watchdog, so a scrape can race a batch at worst into a slightly stale
snapshot.  It records nothing either: scrapes are wall-clock-driven and
must never reach the service registry, whose counters are deterministic
per stream.

:class:`HeartbeatWatchdog` reads :func:`time.monotonic` — a monotonic
duration clock (it measures "how long since the last beat", never "what
time is it").
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping

from .exposition import render_prometheus

__all__ = ["HeartbeatWatchdog", "StatusServer"]


class HeartbeatWatchdog:
    """Liveness from batch completions: unhealthy after ``deadline_s`` quiet.

    The serve loop calls :meth:`beat` after every batch; ``/health``
    calls :meth:`healthy`.  Uses the monotonic clock (a duration
    measurement, immune to wall-clock steps).
    """

    __slots__ = ("deadline_s", "n_beats", "_clock", "_last_beat")

    def __init__(
        self,
        deadline_s: float = 30.0,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if deadline_s <= 0:
            raise ValueError("heartbeat deadline must be positive")
        self.deadline_s = float(deadline_s)
        self.n_beats = 0
        self._clock = clock
        self._last_beat = clock()

    def beat(self) -> None:
        self._last_beat = self._clock()
        self.n_beats += 1

    def seconds_since_beat(self) -> float:
        return self._clock() - self._last_beat

    def healthy(self) -> bool:
        return self.seconds_since_beat() <= self.deadline_s


class _Handler(BaseHTTPRequestHandler):
    """Routes one GET; all state lives on the owning :class:`StatusServer`."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # scrapers are chatty; the serve loop owns stdout/stderr

    def _send(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        owner: "StatusServer" = self.server.owner  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = render_prometheus(owner.snapshot_fn())
                self._send(200, "text/plain; version=0.0.4; charset=utf-8", body)
            elif path == "/health":
                verdict = owner.health()
                status = 200 if verdict["status"] == "OK" else 503
                self._send(status, "application/json", json.dumps(verdict) + "\n")
            elif path in ("/", "/status"):
                body = json.dumps(owner.status(), sort_keys=True, default=str)
                self._send(200, "application/json", body + "\n")
            else:
                self._send(404, "text/plain", "not found\n")
        except BrokenPipeError:  # scraper hung up mid-response
            pass


class StatusServer:
    """Opt-in HTTP introspection thread for ``repro serve --status-port``.

    ``port=0`` binds an ephemeral port (tests); the bound port is available
    as :attr:`port` after construction.  :meth:`close` shuts the listener
    down and joins the thread — the serve loop calls it on every exit path,
    and the thread is a daemon anyway so a crash never hangs the process.
    """

    def __init__(
        self,
        port: int,
        *,
        snapshot_fn: Callable[[], Mapping[str, Any]],
        status_fn: Callable[[], Mapping[str, Any]] | None = None,
        watchdog: HeartbeatWatchdog | None = None,
        host: str = "127.0.0.1",
    ) -> None:
        self.snapshot_fn = snapshot_fn
        self.status_fn = status_fn
        self.watchdog = watchdog
        self._server = ThreadingHTTPServer((host, int(port)), _Handler)
        self._server.daemon_threads = True
        self._server.owner = self  # type: ignore[attr-defined]
        self.host, self.port = self._server.server_address[:2]
        self._thread: threading.Thread | None = None

    def start(self) -> "StatusServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name=f"repro-statusd:{self.port}",
                daemon=True,
            )
            self._thread.start()
        return self

    def url(self, path: str = "/status") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def health(self) -> dict[str, Any]:
        """The ``/health`` verdict from the watchdog deadline."""
        verdict: dict[str, Any] = {"status": "OK"}
        if self.watchdog is not None:
            since = self.watchdog.seconds_since_beat()
            verdict["seconds_since_beat"] = round(since, 3)
            verdict["deadline_s"] = self.watchdog.deadline_s
            verdict["n_beats"] = self.watchdog.n_beats
            if not self.watchdog.healthy():
                verdict["status"] = "NOT_OK"
                verdict["reason"] = "heartbeat deadline exceeded"
        return verdict

    def status(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"health": self.health()["status"]}
        if self.status_fn is not None:
            payload.update(self.status_fn())
        return payload

    def close(self) -> None:
        # shutdown() blocks on serve_forever's acknowledgement event, which
        # is only ever set once the serve loop has run — calling it on a
        # constructed-but-never-started server deadlocks forever, so it is
        # gated on the thread actually existing.  server_close() always
        # runs: the listening socket is bound eagerly in __init__.
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "StatusServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
