"""Online serving subsystem: snapshots, registry, streaming detection service.

The experiment layer fits and scores inside one process; this package turns a
fitted detector into something that can be *deployed*:

* :mod:`repro.serve.snapshot` — pickle-free ``save(path)`` / ``load(path)``
  persistence for every detector, tree ensemble and continual method
  (versioned JSON manifest + one ``.npz`` of arrays),
* :mod:`repro.serve.registry` — a directory-backed model registry with
  named, versioned snapshots and ``latest`` / pinned resolution,
* :mod:`repro.serve.service` — :class:`DetectionService`, a long-lived
  consumer of :class:`~repro.datasets.streaming.FlowStream` (or any batch
  iterator) with micro-batched bounded-memory scoring, rolling thresholds,
  structured alerts and throughput counters,
* :mod:`repro.serve.drift` — rolling score/feature statistics that flag
  distribution shift,
* :mod:`repro.serve.lifecycle` — :class:`LifecycleManager` and friends: the
  online *drift → refit → gate → publish → swap* loop (clean-window
  buffering, Full/Continual/NoRefit policies, quality gate) and the only
  path by which a service swaps its one served detector,
* :mod:`repro.serve.sinks` — pluggable alert sinks (in-memory, JSONL,
  callback); every record a sink or the registry lineage receives is one
  JSON object with a ``"type"`` of ``alert``, ``drift``,
  ``quarantined_rows``, ``sink_disabled``, ``lifecycle`` or
  ``registry_recover`` (``tests/serve/test_event_schema.py`` serves a run
  that writes all six and checks them against their readers),
* :mod:`repro.serve.faults` — the fault-tolerance layer threaded through all
  of the above: poison-row quarantine, resilient sinks, retrying I/O,
  crash-safe registry recovery events, and the
  deterministic :class:`FaultInjector` chaos harness behind
  ``repro serve --inject-faults``,
* :mod:`repro.serve.telemetry` — the observability layer over all of the
  above: a metrics registry (counters and log-bucketed latency
  histograms), span
  tracing of every pipeline stage (``serve --trace-file``, analyzed and
  budget-gated by ``repro trace``), and auditable run reports with
  reproducibility hashes (``serve --run-dir`` / ``serve report``).
  Each degradation reaches API users once: as a sink event or as a
  ``UserWarning``.
"""

from repro.serve.drift import DriftMonitor, DriftReport
from repro.serve.faults import (
    FaultInjected,
    FaultInjector,
    QuarantinedRows,
    RaisingSink,
    RegistryRecovery,
    ResilientSink,
    SinkDisabled,
    call_with_retry,
    emit_resilient,
    wrap_sinks,
)
from repro.serve.lifecycle import (
    ContinualRefit,
    FullRefit,
    GateResult,
    LifecycleEvent,
    LifecycleManager,
    NoRefit,
    QualityGate,
    RefitPolicy,
    WindowBuffer,
    clone_model,
)
from repro.serve.registry import ModelRegistry, SnapshotInfo
from repro.serve.service import (
    Alert,
    BatchResult,
    DetectionService,
    DriftEvent,
    ServiceReport,
)
from repro.serve.sinks import AlertSink, CallbackSink, JsonlSink, ListSink, read_events
from repro.serve.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    load_snapshot,
    read_manifest,
    save_snapshot,
)
from repro.serve.telemetry import (
    MetricsRegistry,
    SpanTracer,
    build_report,
    build_run_summary,
    render_markdown,
    render_run_report,
    trace_span,
    write_report_files,
)

__all__ = [
    "Alert",
    "AlertSink",
    "BatchResult",
    "CallbackSink",
    "ContinualRefit",
    "DetectionService",
    "DriftEvent",
    "DriftMonitor",
    "DriftReport",
    "FaultInjected",
    "FaultInjector",
    "FullRefit",
    "GateResult",
    "JsonlSink",
    "LifecycleEvent",
    "LifecycleManager",
    "ListSink",
    "MetricsRegistry",
    "ModelRegistry",
    "NoRefit",
    "QualityGate",
    "QuarantinedRows",
    "RaisingSink",
    "RefitPolicy",
    "RegistryRecovery",
    "ResilientSink",
    "ServiceReport",
    "SinkDisabled",
    "SnapshotError",
    "SnapshotInfo",
    "SNAPSHOT_FORMAT_VERSION",
    "SpanTracer",
    "WindowBuffer",
    "build_report",
    "build_run_summary",
    "call_with_retry",
    "clone_model",
    "emit_resilient",
    "load_snapshot",
    "read_events",
    "read_manifest",
    "render_markdown",
    "render_run_report",
    "save_snapshot",
    "trace_span",
    "wrap_sinks",
    "write_report_files",
]
