"""Pipeline span tracing for the serving stack.

:func:`trace_span` wraps one pipeline stage (quarantine scan, micro-batched
scoring, threshold update, drift check, sink emit, refit, gate, registry
publish) in a context manager that
records the stage's wall time into a ``stage.<name>.seconds`` histogram and
its row count into a ``stage.<name>.rows`` counter on a
:class:`~repro.serve.telemetry.metrics.MetricsRegistry` — and, when a
:class:`SpanTracer` is attached (``repro serve --trace-file``), appends one
JSONL record per span so a run leaves a replayable trace on disk.  The
trace file is written by :class:`~repro.serve.sinks.JsonlSink` and read
back by :func:`~repro.serve.sinks.read_events`, like every JSONL file of
the serving stack.

With a :class:`~repro.serve.telemetry.context.TraceContext` attached, the
span additionally carries ``trace_id`` / ``span_id`` / ``parent_span_id``
(deterministic dotted ids — see :mod:`~repro.serve.telemetry.context`), and
``span.ctx`` exposes the child context for spans nested inside it.  Records
are appended at ``__exit__``, so a JSONL trace lists children *before* their
parents; readers must rebuild the tree from the ids, not the line order.

:class:`SpanBuffer` has the same ``record`` API but keeps span dicts in
memory, for callers that inspect spans without a trace file.

The span object is a tiny ``__slots__`` class rather than a
``@contextmanager`` generator: it sits inside the per-batch hot loop, and a
generator frame costs several times more than the two ``perf_counter`` calls
that do the actual work.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from ..sinks import JsonlSink
from .context import TraceContext
from .metrics import DISABLED, MetricsRegistry

__all__ = ["SpanBuffer", "SpanTracer", "trace_span"]


class SpanTracer:
    """Append-only JSONL span file, written through a :class:`JsonlSink`.

    The file opens lazily on the first span and every ``record`` appends and
    flushes one line, so a crashed run still leaves every completed span on
    disk; torn-line handling is the sink's.  Span timestamps are reported as
    ``t_offset_s`` relative to the tracer's construction (monotonic clock),
    which keeps traces comparable across runs without leaking wall-clock
    time into the format.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._origin = perf_counter()
        self._sink = JsonlSink(path)

    @property
    def n_spans(self) -> int:
        return self._sink.n_written

    def record(self, span: dict[str, Any]) -> None:
        self._sink.append(span)

    def close(self) -> None:
        self._sink.close()

    def __enter__(self) -> "SpanTracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SpanBuffer:
    """In-memory tracer with :class:`SpanTracer`'s ``record`` API.

    Spans accumulate in :attr:`spans` instead of a file; ``t_offset_s``
    values are relative to *this buffer's* construction.
    """

    __slots__ = ("spans", "n_spans", "_origin")

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.n_spans = 0
        self._origin = perf_counter()

    def record(self, span: dict[str, Any]) -> None:
        self.spans.append(span)
        self.n_spans += 1

    def close(self) -> None:
        pass


class trace_span:
    """Context manager timing one pipeline stage into the metrics registry.

    ``with trace_span("score", metrics=registry, rows=len(X)): ...`` records
    the block's wall time into the ``stage.score.seconds`` histogram and adds
    ``rows`` to the ``stage.score.rows`` counter; with a ``tracer`` it also
    appends ``{"stage", "seconds", "rows", "batch_index", "t_offset_s",
    "error"}`` as one JSONL line.  With a ``context`` the record additionally
    carries ``trace_id``/``span_id``/``parent_span_id`` and ``span.ctx`` is
    the child :class:`TraceContext` for nested spans (``None`` otherwise, so
    callers can thread ``context=parent.ctx`` unconditionally).  Exceptions
    propagate (the span records them with ``"error": <type name>`` first), so
    instrumentation never changes control flow.
    """

    __slots__ = (
        "stage",
        "metrics",
        "tracer",
        "rows",
        "batch_index",
        "context",
        "span_id",
        "_child",
        "_t0",
    )

    def __init__(
        self,
        stage: str,
        *,
        metrics: MetricsRegistry | None = None,
        tracer: "SpanTracer | SpanBuffer | None" = None,
        rows: int = 0,
        batch_index: int | None = None,
        context: TraceContext | None = None,
    ) -> None:
        self.stage = stage
        self.metrics = DISABLED if metrics is None else metrics
        self.tracer = tracer
        self.rows = int(rows)
        self.batch_index = batch_index
        self.context = context
        self.span_id: str | None = None
        self._child: TraceContext | None = None
        self._t0 = 0.0

    @property
    def ctx(self) -> TraceContext | None:
        """The child context under this span (``None`` without a context)."""
        if self._child is None and self.context is not None:
            self._child = self.context.child(self.span_id)
        return self._child

    def __enter__(self) -> "trace_span":
        context = self.context
        if context is not None:
            self.span_id = context.allocate()
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        elapsed = perf_counter() - self._t0
        metrics = self.metrics
        metrics.histogram(f"stage.{self.stage}.seconds", unit="seconds").observe(
            elapsed
        )
        if self.rows:
            metrics.counter(f"stage.{self.stage}.rows", unit="rows").inc(self.rows)
        tracer = self.tracer
        if tracer is not None:
            span: dict[str, Any] = {
                "stage": self.stage,
                "seconds": elapsed,
                "rows": self.rows,
                "t_offset_s": self._t0 - tracer._origin,
            }
            if self.batch_index is not None:
                span["batch_index"] = self.batch_index
            context = self.context
            if context is not None:
                span["trace_id"] = context.trace_id
                span["span_id"] = self.span_id
                if context.span_id is not None:
                    span["parent_span_id"] = context.span_id
            if exc_type is not None:
                span["error"] = exc_type.__name__
            tracer.record(span)
