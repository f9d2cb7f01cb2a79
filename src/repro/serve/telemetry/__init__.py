"""Serving telemetry: metrics registry, span tracing and run reports.

The observability substrate for :mod:`repro.serve`, in five pieces:

* :mod:`~repro.serve.telemetry.metrics` — process-local
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments behind
  a :class:`MetricsRegistry` with a dict :meth:`~MetricsRegistry.snapshot`
  (served live on ``/metrics`` and written to ``run_summary.json``).
* :mod:`~repro.serve.telemetry.tracing` / :mod:`~repro.serve.telemetry.context`
  — :func:`trace_span` wraps each pipeline stage, recording wall time + rows
  into the registry and optionally to a :class:`SpanTracer` JSONL file
  (``serve --trace-file``, written by :class:`~repro.serve.sinks.JsonlSink`
  and read by :func:`~repro.serve.sinks.read_events` like every JSONL file
  of the serving stack); with a :class:`TraceContext` attached every span
  carries deterministic ``trace_id``/``span_id``/``parent_span_id`` ids
  (:class:`SpanBuffer` keeps spans in memory instead of a file).
* :mod:`~repro.serve.telemetry.traceview` — the ``repro trace`` analyzer,
  the one reader of span files: the per-stage aggregation table and the
  ``--budget`` p95 latency gate.
* :mod:`~repro.serve.telemetry.statusd` / :mod:`~repro.serve.telemetry.exposition`
  — the opt-in live introspection endpoint (``serve --status-port``):
  :class:`StatusServer` answers ``/metrics`` (:func:`render_prometheus`),
  ``/health`` (:class:`HeartbeatWatchdog`) and ``/status``.
* :mod:`~repro.serve.telemetry.report` — auditable run reports:
  :func:`build_report` / :func:`render_markdown` produce sectioned
  MET/NOT_MET verdicts with evidence (``report.json`` + ``report.md``),
  :func:`build_run_summary` records reproducibility hashes, and
  :func:`render_run_report` re-renders from a run directory
  (``repro serve report``).
"""

from .context import TraceContext
from .exposition import render_prometheus
from .metrics import (
    DISABLED,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_spaced_buckets,
)
from .report import (
    build_report,
    build_run_summary,
    config_sha256,
    load_run_dir,
    render_markdown,
    render_run_report,
    write_report_files,
)
from .statusd import HeartbeatWatchdog, StatusServer
from .tracing import SpanBuffer, SpanTracer, trace_span
from .traceview import stage_aggregate

__all__ = [
    "Counter",
    "DISABLED",
    "Gauge",
    "HeartbeatWatchdog",
    "Histogram",
    "MetricsRegistry",
    "SpanBuffer",
    "SpanTracer",
    "StatusServer",
    "TraceContext",
    "build_report",
    "build_run_summary",
    "config_sha256",
    "load_run_dir",
    "log_spaced_buckets",
    "render_markdown",
    "render_prometheus",
    "render_run_report",
    "stage_aggregate",
    "trace_span",
    "write_report_files",
]
