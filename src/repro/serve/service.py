"""Long-lived streaming detection service over any fitted detector.

:class:`DetectionService` consumes a
:class:`~repro.datasets.streaming.FlowStream` (or any iterator of feature
batches) and turns a fitted :class:`~repro.novelty.NoveltyDetector` into an
online scorer with the operational pieces a deployment needs:

* **micro-batched, validate-once scoring** — the feature width is checked
  once per stream; every incoming batch is re-chunked into at most
  ``micro_batch_size`` rows before scoring, so peak memory stays bounded no
  matter how large a producer's batches are, while the concatenated scores
  are identical to one-shot batch scoring (row-wise detectors);
* **thresholds over time** — a fixed threshold, the detector's own
  training-quantile default, or a rolling quantile of the most recent scores
  that follows slow drift of the score distribution;
* **structured alerts** through pluggable sinks (:mod:`repro.serve.sinks`);
* **drift monitoring** via :class:`~repro.serve.drift.DriftMonitor`; the
  drift reaction — refit, or reload from a
  :class:`~repro.serve.registry.ModelRegistry` — belongs to an optional
  :class:`~repro.serve.lifecycle.LifecycleManager`, the one path that swaps
  the served detector;
* **telemetry** (:mod:`repro.serve.telemetry`) — each batch, and every
  pipeline stage inside it (quarantine scan, scoring, threshold update,
  drift check, sink emit), runs under a
  :func:`~repro.serve.telemetry.trace_span` feeding the service's
  :class:`~repro.serve.telemetry.MetricsRegistry`, with optional JSONL span
  traces (``tracer``).  Each serving fact has one store: counts live in the
  service's ``n_*_`` attributes, times in the span histograms.
  ``metrics_snapshot()`` joins the two (the attributes become the
  ``pipeline.*`` counters), and :meth:`DetectionService.report` reads its
  totals off that snapshot with
  :func:`~repro.serve.telemetry.report.run_totals`, as the run report does.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.metrics.thresholds import quantile_threshold
from repro.serve.drift import DriftMonitor, DriftReport, _RingBuffer
from repro.serve.faults import QuarantinedRows, emit_resilient, wrap_sinks
from repro.serve.sinks import _ENCODER
from repro.serve.telemetry.context import TraceContext
from repro.serve.telemetry.metrics import MetricsRegistry
from repro.serve.telemetry.report import run_totals
from repro.serve.telemetry.tracing import SpanBuffer, SpanTracer, trace_span

__all__ = [
    "Alert",
    "BatchResult",
    "DetectionService",
    "DriftEvent",
    "ServiceReport",
]


def _validate_stream_batch(
    X: np.ndarray, n_features: int | None
) -> tuple[np.ndarray, int]:
    """Validate-once batch check.

    Returns the converted batch and the (possibly just-fixed) stream feature
    width.
    """
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    if X.ndim != 2:
        raise ValueError(f"stream batches must be 2-D, got shape {X.shape}")
    if n_features is None:
        n_features = int(X.shape[1])
    elif X.shape[1] != n_features:
        raise ValueError(
            f"stream batch has {X.shape[1]} features, "
            f"stream started with {n_features}"
        )
    return X, n_features


@dataclass(frozen=True)
class Alert:
    """One flagged flow: where in the stream it was and why."""

    batch_index: int
    sample_index: int  # global offset within the stream
    score: float
    threshold: float

    def to_dict(self) -> dict:
        return {
            "type": "alert",
            "batch_index": self.batch_index,
            "sample_index": self.sample_index,
            "score": self.score,
            "threshold": self.threshold,
        }

    def to_json_line(self) -> str:
        """This alert's :class:`~repro.serve.sinks.JsonlSink` line.

        Byte-identical to the sink's generic sorted-key encoding of
        :meth:`to_dict`, without building the dict: builtin ints and finite
        floats fill a template (``repr`` is how the encoder spells a float);
        anything else, ``nan`` and ``inf`` included, takes the encoder.
        """
        batch_index, sample_index = self.batch_index, self.sample_index
        score, threshold = self.score, self.threshold
        if (
            type(batch_index) is int
            and type(sample_index) is int
            and type(score) is float
            and type(threshold) is float
            and math.isfinite(score)
            and math.isfinite(threshold)
        ):
            return (
                f'{{"batch_index": {batch_index}, "sample_index": {sample_index}, '
                f'"score": {score!r}, "threshold": {threshold!r}, "type": "alert"}}\n'
            )
        return _ENCODER.encode(self.to_dict()) + "\n"


@dataclass(frozen=True)
class DriftEvent:
    """Emitted to sinks when the drift monitor fires on a batch."""

    batch_index: int
    report: DriftReport

    def to_dict(self) -> dict:
        payload = self.report.to_dict()
        payload["batch_index"] = self.batch_index
        return payload


@dataclass(frozen=True)
class BatchResult:
    """Everything the service derived from one stream batch.

    ``model_epoch`` tags which served model scored the batch: it starts at 0
    and increments on every hot-swap (:meth:`DetectionService.reload_detector`),
    so a consumer can verify exactly which model version produced which
    scores.
    """

    index: int
    scores: np.ndarray
    predictions: np.ndarray
    threshold: float
    alerts: tuple[Alert, ...]
    drift: DriftReport | None
    model_epoch: int = 0
    #: Row indices (within the incoming batch) diverted to quarantine before
    #: scoring — rows with a non-finite feature.
    #: Quarantined rows never reach the detector, the rolling threshold, the
    #: drift monitor or the refit window, and do not consume sample indices.
    quarantined: tuple[int, ...] = ()
    quarantine_reason: str | None = None

    @property
    def n_samples(self) -> int:
        return int(self.scores.shape[0])

    @property
    def n_alerts(self) -> int:
        return len(self.alerts)


@dataclass
class ServiceReport:
    """Aggregate counters after a stream has been fully processed.

    Built by :meth:`DetectionService.report` from
    :func:`~repro.serve.telemetry.report.run_totals`: the times cover whole
    ``batch`` spans.
    """

    n_batches: int = 0
    n_samples: int = 0
    n_alerts: int = 0
    n_drift_events: int = 0
    drift_batches: list[int] = field(default_factory=list)
    total_time_s: float = 0.0
    throughput_samples_per_sec: float = 0.0
    mean_batch_latency_s: float = 0.0
    batch_latency_p50_s: float = 0.0
    batch_latency_p95_s: float = 0.0
    batch_latency_p99_s: float = 0.0
    n_quarantined: int = 0
    n_disabled_sinks: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        """Human-readable one-paragraph report."""
        lines = [
            f"processed {self.n_samples} flows in {self.n_batches} batches "
            f"({self.throughput_samples_per_sec:,.0f} flows/s, "
            f"{1e3 * self.mean_batch_latency_s:.2f} ms/batch)",
            f"batch latency: p50 {1e3 * self.batch_latency_p50_s:.2f} ms · "
            f"p95 {1e3 * self.batch_latency_p95_s:.2f} ms · "
            f"p99 {1e3 * self.batch_latency_p99_s:.2f} ms",
            f"alerts: {self.n_alerts}",
        ]
        if self.n_drift_events:
            batches = ", ".join(str(b) for b in self.drift_batches)
            lines.append(f"drift flagged on batch(es): {batches}")
        else:
            lines.append("drift: none flagged")
        if self.n_quarantined:
            lines.append(f"quarantined rows: {self.n_quarantined}")
        if self.n_disabled_sinks:
            lines.append(f"disabled sinks: {self.n_disabled_sinks}")
        return "\n".join(lines)


class DetectionService:
    """Serve a fitted detector over a stream of flow batches.

    Parameters
    ----------
    detector:
        Fitted object exposing ``score_samples(X) -> scores`` (every novelty
        detector and continual method).
    threshold:
        ``"auto"`` uses the detector's training-quantile default
        (``threshold_`` attribute), ``"rolling"`` maintains a rolling-window
        quantile of recent scores, and a float fixes the threshold.
    rolling_window, rolling_quantile, min_rolling:
        Rolling-threshold configuration: window capacity (bounded memory),
        quantile of the window used as the threshold, and the number of
        scores required before the rolling estimate replaces the warm-up
        threshold (the detector default when available).
    micro_batch_size:
        Upper bound on rows scored per detector call; incoming batches are
        re-chunked to this size so memory stays bounded.
    drift_monitor:
        Optional :class:`~repro.serve.drift.DriftMonitor`; fed every batch.
    sinks:
        :mod:`repro.serve.sinks` instances receiving alerts and drift events.
        Every sink is wrapped in a
        :class:`~repro.serve.faults.ResilientSink`: a raising sink is
        retried, then disabled after repeated consecutive failures (a
        ``sink_disabled`` event reaches the surviving sinks) — a broken
        pager must never kill the scoring loop.
    lifecycle:
        Optional :class:`~repro.serve.lifecycle.LifecycleManager` that owns
        the full drift reaction: every scored batch feeds its clean-window
        buffer, and when the monitor fires it refits, gates, publishes and
        hot-swaps (see :mod:`repro.serve.lifecycle`).
        ``LifecycleManager(NoRefit())`` with a registry reloads the
        registry's pinned or latest version instead of refitting.
    tracer:
        Optional :class:`~repro.serve.telemetry.SpanTracer` (or an
        in-memory :class:`~repro.serve.telemetry.SpanBuffer`); when set,
        every pipeline-stage span is also appended to its JSONL trace file
        (``repro serve --trace-file``) under a root
        :class:`~repro.serve.telemetry.TraceContext`
        (``TraceContext.root(0)``): every recorded span carries deterministic
        ``trace_id``/``span_id``/``parent_span_id`` fields, and each batch
        runs under one ``batch`` span whose children are the stage spans.
    """

    def __init__(
        self,
        detector: Any,
        *,
        threshold: float | str = "auto",
        rolling_window: int = 4096,
        rolling_quantile: float = 0.95,
        min_rolling: int = 64,
        micro_batch_size: int = 1024,
        drift_monitor: DriftMonitor | None = None,
        sinks: Sequence[Any] = (),
        lifecycle: Any = None,
        tracer: SpanTracer | SpanBuffer | None = None,
    ) -> None:
        if isinstance(threshold, str) and threshold not in ("auto", "rolling"):
            raise ValueError("threshold must be a float, 'auto' or 'rolling'")
        if not isinstance(threshold, str) and math.isnan(threshold):
            raise ValueError("threshold must not be NaN: no score exceeds it")
        if rolling_window < 2:
            raise ValueError("rolling_window must be at least 2")
        if not 0.0 < rolling_quantile < 1.0:
            raise ValueError("rolling_quantile must be strictly between 0 and 1")
        if min_rolling < 1:
            raise ValueError("min_rolling must be at least 1")
        if micro_batch_size < 1:
            raise ValueError("micro_batch_size must be at least 1")
        self.detector = detector
        self.threshold = threshold
        self.rolling_window = rolling_window
        self.rolling_quantile = rolling_quantile
        self.min_rolling = min_rolling
        self.micro_batch_size = micro_batch_size
        self.drift_monitor = drift_monitor
        self.sinks = wrap_sinks(sinks)
        self.lifecycle = lifecycle
        #: Span times of this service and its lifecycle manager; counts are
        #: the ``n_*_`` attributes below, rendered by :meth:`metrics_snapshot`.
        self.telemetry = MetricsRegistry()
        self.tracer = tracer
        self.trace_context = None if tracer is None else TraceContext.root()
        #: Optional liveness hook (``repro serve --status-port``): the
        #: watchdog beats once per completed batch.  A plain attribute so
        #: the CLI can attach it without widening every signature.
        self.heartbeat: Any = None
        # The lifecycle manager inherits this service's telemetry channel
        # unless it was wired to its own (refit/gate/publish spans land in
        # the same registry the batch spans do).
        if lifecycle is not None and getattr(lifecycle, "telemetry", None) is None:
            lifecycle.telemetry = self.telemetry
            if getattr(lifecycle, "tracer", None) is None:
                lifecycle.tracer = tracer

        self.epoch_ = 0
        self.n_features_: int | None = None
        self.n_batches_ = 0
        self.n_samples_ = 0
        self.n_alerts_ = 0
        self.n_quarantined_ = 0
        self.drift_batches_: list[int] = []
        self._rolling = _RingBuffer(rolling_window, 1)

    # -- model management --------------------------------------------------------
    def reload_detector(self, detector: Any, *, rebootstrap: bool = True) -> None:
        """Swap the served model in place (used by drift-triggered swaps).

        The feature contract of the stream is unchanged, so the validate-once
        state is kept.  Everything derived from the *old model* is discarded:
        the rolling threshold window and the drift monitor's
        windows plus both of its references (``reset(rebootstrap=True)``) —
        the new model's scores may be centred elsewhere, and a refitted model
        was trained on post-drift traffic, so judging the stream against the
        pre-swap score *or feature* reference would re-fire drift (and
        re-swap) forever.  The monitor re-derives both references from the
        next streamed samples.

        Pass ``rebootstrap=False`` when the incoming model was *not* trained
        on recent traffic (e.g. re-serving a known, possibly stale registry
        version): the monitor then keeps its feature reference
        (``reset(clear_score_reference=True)``), so a persistent covariate
        shift keeps re-firing after each cooldown instead of being silently
        absorbed into a new baseline.

        Each swap advances :attr:`epoch_`, the model version tag carried by
        every subsequent :class:`BatchResult`.
        """
        self.detector = detector
        self.epoch_ += 1
        self._rolling = _RingBuffer(self.rolling_window, 1)
        if self.drift_monitor is not None:
            self.drift_monitor.reset(
                clear_score_reference=True, rebootstrap=rebootstrap
            )

    # -- scoring -----------------------------------------------------------------
    def _validate_once(self, X: np.ndarray) -> np.ndarray:
        X, self.n_features_ = _validate_stream_batch(X, self.n_features_)
        return X

    def _score_micro_batched(self, X: np.ndarray) -> np.ndarray:
        """Score ``X`` in chunks of at most ``micro_batch_size`` rows.

        Row-wise detector scoring makes the concatenation identical to a
        single ``score_samples(X)`` call while bounding peak memory.
        """
        detector = self.detector
        n = X.shape[0]
        if n <= self.micro_batch_size:
            return np.asarray(detector.score_samples(X), dtype=np.float64)
        scores = np.empty(n)
        for start in range(0, n, self.micro_batch_size):
            stop = min(start + self.micro_batch_size, n)
            scores[start:stop] = detector.score_samples(X[start:stop])
        return scores

    def _current_threshold(self, batch_scores: np.ndarray | None = None) -> float:
        """Threshold for the incoming batch, from *pre-batch* state only.

        The rolling window must not yet contain ``batch_scores``: a threshold
        that included the current batch would let a burst of anomalies inflate
        its own cut-off and evade alerting.  ``batch_scores`` is used solely to
        bootstrap the very first rolling threshold when the window is empty
        and the detector has no fitted default.
        """
        if isinstance(self.threshold, (int, float)):
            return float(self.threshold)
        detector_default = getattr(self.detector, "threshold_", None)
        if self.threshold == "auto":
            if detector_default is None:
                raise RuntimeError(
                    "threshold='auto' requires a fitted detector with a default "
                    "threshold_; fit the detector or use 'rolling'/a float"
                )
            return float(detector_default)
        # rolling: warm up on the detector default until enough scores arrived
        if self._rolling.count < self.min_rolling and detector_default is not None:
            return float(detector_default)
        if self._rolling.count == 0:
            if batch_scores is not None and batch_scores.size:
                return float(
                    quantile_threshold(batch_scores, self.rolling_quantile)
                )
            raise RuntimeError("rolling threshold requested before any scores arrived")
        return float(
            quantile_threshold(self._rolling.values().ravel(), self.rolling_quantile)
        )

    def _emit(self, *events: Any) -> None:
        """Hand ``events`` to the sinks in one call under one ``sink_emit`` span."""
        if not self.sinks or not events:
            return
        # Span only when there are sinks to pay for.  Emit spans parent to
        # the *root* context, not the current batch: root-level sink_emit is
        # part of the span layout that trace consumers rely on.
        with trace_span(
            "sink_emit",
            metrics=self.telemetry,
            tracer=self.tracer,
            context=self.trace_context,
        ):
            emit_resilient(self.sinks, *events)

    def process_batch(self, X: np.ndarray) -> BatchResult:
        """Score one batch: thresholds, alerts, drift, counters.

        Zero-row batches (an idle producer flushing an empty buffer) are
        counted in the report but skip scoring, threshold evaluation, alerts
        and drift — there is nothing to judge, and a rolling threshold over
        an empty window would otherwise raise at stream start.  Their
        :attr:`BatchResult.threshold` is ``nan``.

        Rows with non-finite features are quarantined *before* scoring: they
        are cut from the batch, announced via a
        :class:`~repro.serve.faults.QuarantinedRows` event, and never touch
        the rolling threshold, the drift monitor, or the lifecycle's refit
        window.  They also do not consume sample indices, so the surviving
        alerts are identical to a run on the stream with those rows deleted.

        The whole batch runs under one ``batch`` span; with a trace context
        the stage spans inside nest under it, so every batch forms one
        subtree of the trace.  When the batch fires the drift monitor, the
        lifecycle's reaction (refit, gate, publish, swap) runs after that
        span closes, so the span times serving alone.  The span's
        ``stage.batch.seconds`` histogram is the service's one clock:
        :meth:`report` reads throughput and latency off it.  The heartbeat
        watchdog (when attached) beats once per completed batch, after both.
        """
        with trace_span(
            "batch",
            metrics=self.telemetry,
            tracer=self.tracer,
            batch_index=self.n_batches_,
            context=self.trace_context,
        ) as batch_span:
            result = self._process_batch(X, batch_span)
        drift = result.drift
        if self.lifecycle is not None and drift is not None and drift.drifted:
            self.lifecycle.handle_drift(self, drift)
        if self.heartbeat is not None:
            self.heartbeat.beat()
        return result

    def _process_batch(self, X: np.ndarray, batch_span: trace_span) -> BatchResult:
        """The ``batch``-span body: quarantine, score, threshold, drift check."""
        ctx = batch_span.ctx
        X = self._validate_once(X)
        quarantined: tuple[int, ...] = ()
        quarantine_reason: str | None = None
        if X.shape[0]:
            with trace_span(
                "quarantine_scan",
                metrics=self.telemetry,
                tracer=self.tracer,
                rows=int(X.shape[0]),
                batch_index=self.n_batches_,
                context=ctx,
            ):
                finite = np.isfinite(X).all(axis=1)
                if not finite.all():
                    quarantined = tuple(int(i) for i in np.flatnonzero(~finite))
                    X = np.ascontiguousarray(X[finite])
            if quarantined:
                quarantine_reason = "non-finite feature values"
                self.n_quarantined_ += len(quarantined)
                self._emit(
                    QuarantinedRows(
                        batch_index=self.n_batches_,
                        row_indices=quarantined,
                        reason=quarantine_reason,
                    )
                )
        batch_index = self.n_batches_
        offset = self.n_samples_
        n_rows = int(X.shape[0])
        batch_span.rows = n_rows
        if n_rows:
            # The batch span carries the scored rows; score and drift_check
            # always see the same rows and record none of their own.
            with trace_span(
                "score",
                metrics=self.telemetry,
                tracer=self.tracer,
                batch_index=batch_index,
                context=ctx,
            ):
                scores = self._score_micro_batched(X)
            # Threshold comes from the window *before* this batch (else a
            # burst of anomalies would inflate its own threshold and evade
            # alerting); only then does the batch enter the window.
            with trace_span(
                "threshold_update",
                metrics=self.telemetry,
                tracer=self.tracer,
                batch_index=batch_index,
                context=ctx,
            ):
                threshold = self._current_threshold(scores)
                self._rolling.extend(scores[:, None])
            predictions = (scores > threshold).astype(np.int64)
        else:
            scores = np.empty(0, dtype=np.float64)
            threshold = float("nan")
            predictions = np.empty(0, dtype=np.int64)
        flagged = np.flatnonzero(predictions)
        alerts = tuple(
            Alert(batch_index, sample_index, score, threshold)
            for sample_index, score in zip(
                (flagged + offset).tolist(), scores[flagged].tolist()
            )
        )
        self._emit(*alerts)

        drift_report: DriftReport | None = None
        if self.drift_monitor is not None and scores.size:
            with trace_span(
                "drift_check",
                metrics=self.telemetry,
                tracer=self.tracer,
                batch_index=batch_index,
                context=ctx,
            ):
                drift_report = self.drift_monitor.update(scores, X)
        # Clean rows feed the refit window *before* any drift reaction: the
        # batch that fired the monitor is skipped by observe_batch, so the
        # acute transition never enters the window.
        if self.lifecycle is not None and scores.size:
            self.lifecycle.observe_batch(X, scores, threshold, drift_report)
        if drift_report is not None and drift_report.drifted:
            self.drift_batches_.append(batch_index)
            self._emit(DriftEvent(batch_index=batch_index, report=drift_report))

        self.n_batches_ += 1
        self.n_samples_ += int(scores.shape[0])
        self.n_alerts_ += len(alerts)
        return BatchResult(
            index=batch_index,
            scores=scores,
            predictions=predictions,
            threshold=threshold,
            alerts=alerts,
            drift=drift_report,
            model_epoch=self.epoch_,
            quarantined=quarantined,
            quarantine_reason=quarantine_reason,
        )

    # -- stream consumption ------------------------------------------------------
    @staticmethod
    def _batch_features(item: Any) -> np.ndarray:
        # FlowStream yields (X, y); plain iterators may yield bare arrays.
        if isinstance(item, tuple) and len(item) >= 1:
            return item[0]
        return item

    def process(self, stream: Iterable[Any]) -> Iterator[BatchResult]:
        """Yield a :class:`BatchResult` per stream batch (lazy)."""
        for item in stream:
            yield self.process_batch(self._batch_features(item))

    def run(self, stream: Iterable[Any], *, close_sinks: bool = True) -> ServiceReport:
        """Consume the whole stream and return the aggregate report."""
        try:
            for _ in self.process(stream):
                pass
        finally:
            if close_sinks:
                for sink in self.sinks:
                    sink.close()
        return self.report()

    @property
    def n_drift_events_(self) -> int:
        return len(self.drift_batches_)

    @property
    def n_disabled_sinks_(self) -> int:
        """Sinks disabled so far, by this service or by a lifecycle manager
        sharing its sink wrappers."""
        return sum(sink.disabled_ for sink in self.sinks)

    def metrics_snapshot(self) -> dict:
        """Dict export of the span metrics plus the ``pipeline.*`` counters.

        The counters are rendered from the service's own attributes, the one
        store of each count.
        """
        snapshot = self.telemetry.snapshot()
        counters = snapshot["counters"]
        for name, unit, value in (
            ("batches", "batches", self.n_batches_),
            ("rows", "rows", self.n_samples_),
            ("alerts", "alerts", self.n_alerts_),
            ("drift_events", "events", self.n_drift_events_),
            ("quarantined_rows", "rows", self.n_quarantined_),
            ("disabled_sinks", "sinks", self.n_disabled_sinks_),
        ):
            counters[f"pipeline.{name}"] = {"value": value, "unit": unit}
        snapshot["counters"] = dict(sorted(counters.items()))
        return snapshot

    def report(self) -> ServiceReport:
        """Aggregate counters so far (usable mid-stream as well), read off
        :meth:`metrics_snapshot` by
        :func:`~repro.serve.telemetry.report.run_totals`."""
        return ServiceReport(
            **run_totals(self.metrics_snapshot()),
            drift_batches=list(self.drift_batches_),
        )
