"""Fault tolerance for the serving stack, plus a deterministic fault injector.

A serving deployment that has to survive heavy traffic cannot treat every
failure as fatal: a paging sink that starts raising, one NaN row from a broken
producer, or a registry version torn by a killed publisher must degrade the
service, not kill it — and every degradation must leave an auditable event.
This module collects the pieces the rest of :mod:`repro.serve` threads
through the stack:

* **structured fault events** — :class:`QuarantinedRows` (poison rows diverted
  before scoring), :class:`SinkDisabled` (a repeatedly raising sink was
  taken out of the loop) and :class:`RegistryRecovery` (a partial/corrupt
  registry version was quarantined at startup).  All of
  them expose ``to_dict()`` and flow through the ordinary alert sinks;
* **sink fault isolation** — :class:`ResilientSink` wraps any sink so a raise
  is retried and, after ``max_consecutive_errors`` consecutive failed emits,
  the sink is disabled instead of poisoning the scoring loop
  (:func:`wrap_sinks` / :func:`emit_resilient` are the service-side helpers);
* **retrying I/O** — :func:`call_with_retry`, the shared
  ``retry(attempts, backoff, jitter-from-seed)`` helper used by registry and
  snapshot I/O (deterministic jitter: reruns back off identically);
* **a deterministic fault-injection harness** — :class:`FaultInjector`,
  built from a compact spec string (see :meth:`FaultInjector.from_spec`),
  injects each failure class the tolerance layer claims to survive: a sink
  raising every *m*-th emit, a NaN row burst at rate *p*, a torn registry
  write and a stalled producer.  Everything is seeded, so a chaos test
  can reconstruct exactly which rows were poisoned and assert the degraded
  run still matches the fault-free one.

Spec grammar (``repro serve --inject-faults SPEC``)::

    SPEC     := clause (';' clause)*
    clause   := NAME ['@' param (',' param)*]
    param    := KEY '=' VALUE
    NAME     := 'sink_raise' | 'nan_rows' | 'torn_write' | 'stall'

    sink_raise@every=M            every M-th emit of each wrapped sink raises
    nan_rows@rate=P               poison each row with probability P (seeded)
    nan_rows@every=N,rows=J       poison J rows of every N-th batch
    torn_write                    tear the next published registry version
    stall@batch=K[,seconds=T]     sleep T seconds (default 2) before yielding
                                  batch K — a stuck producer; trips the
                                  ``--status-port`` heartbeat watchdog when
                                  T exceeds ``--health-deadline``

Example: ``sink_raise@every=1;nan_rows@rate=0.05`` is the acceptance chaos
mix — a sink raising on every emit over a 5% poison-row stream.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.serve.telemetry.log import get_logger, log_event

_logger = get_logger("faults")

__all__ = [
    "FaultInjected",
    "FaultInjector",
    "QuarantinedRows",
    "RaisingSink",
    "RegistryRecovery",
    "ResilientSink",
    "SinkDisabled",
    "call_with_retry",
    "emit_resilient",
    "wrap_sinks",
]


# -- structured fault events -----------------------------------------------------
@dataclass(frozen=True)
class QuarantinedRows:
    """Rows diverted to quarantine before scoring (poison-row isolation).

    ``row_indices`` are positions *within the incoming batch*; the rows never
    reach the detector, the rolling threshold window, the drift monitor or
    the refit window buffer, and they do not consume stream sample indices —
    the scored stream behaves exactly as if the rows had been deleted.
    """

    batch_index: int
    row_indices: tuple[int, ...]
    reason: str

    @property
    def n_rows(self) -> int:
        return len(self.row_indices)

    def to_dict(self) -> dict:
        return {
            "type": "quarantined_rows",
            "batch_index": self.batch_index,
            "row_indices": list(self.row_indices),
            "n_rows": self.n_rows,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class SinkDisabled:
    """A sink was disabled after repeated consecutive emit failures."""

    sink: str
    n_errors: int
    reason: str

    def to_dict(self) -> dict:
        return {
            "type": "sink_disabled",
            "sink": self.sink,
            "n_errors": self.n_errors,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class RegistryRecovery:
    """One corrupt/partial registry version quarantined by the recovery scan."""

    name: str
    version_dir: str
    reason: str
    quarantined_to: str

    def to_dict(self) -> dict:
        return {
            "type": "registry_recover",
            "name": self.name,
            "version_dir": self.version_dir,
            "reason": self.reason,
            "quarantined_to": self.quarantined_to,
        }


# -- sink fault isolation --------------------------------------------------------
class ResilientSink:
    """Wrap a sink so its failures cannot kill the scoring loop.

    Each ``emit`` is retried up to ``retries`` extra times; an emit that
    still fails is dropped *for this sink only* and counts one consecutive
    error.  After ``max_consecutive_errors`` consecutive failed emits the
    sink is disabled (further events are dropped silently) and ``emit``
    returns a :class:`SinkDisabled` event the caller should broadcast to the
    surviving sinks — :func:`emit_resilient` does exactly that.  A single
    successful emit resets the consecutive-error count, so a transiently
    flaky sink (full disk that clears, a pager briefly offline) is retried
    indefinitely rather than being disabled on scattered errors.

    :meth:`emit_many` hands a batch to the wrapped sink's own ``emit_many``
    when it has one: the whole batch is one emit — retried as a unit,
    counting one consecutive error and ``len(events)`` drops when it still
    fails.  A sink without ``emit_many`` gets the batch event by event,
    each event its own emit with the semantics above.

    ``close`` failures are swallowed too: shutdown must not raise through a
    half-broken sink.
    """

    def __init__(
        self,
        sink: Any,
        *,
        retries: int = 1,
        max_consecutive_errors: int = 3,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if max_consecutive_errors < 1:
            raise ValueError("max_consecutive_errors must be at least 1")
        self.inner = sink
        self.retries = retries
        self.max_consecutive_errors = max_consecutive_errors
        self.disabled_ = False
        self.n_errors_ = 0
        self.n_dropped_ = 0
        self.consecutive_errors_ = 0
        self.last_error_: BaseException | None = None

    def emit(self, event: Any) -> SinkDisabled | None:
        """Emit ``event``; returns a :class:`SinkDisabled` on the disabling emit."""
        return self._deliver(self.inner.emit, event, 1)

    def emit_many(self, events: Sequence[Any]) -> SinkDisabled | None:
        """Emit a batch in order; returns a :class:`SinkDisabled` if it disabled the sink."""
        emit_many = getattr(self.inner, "emit_many", None)
        if emit_many is not None:
            return self._deliver(emit_many, events, len(events))
        notice = None
        for event in events:
            notice = self.emit(event) or notice
        return notice

    def _deliver(
        self, send: Callable[[Any], None], payload: Any, n_events: int
    ) -> SinkDisabled | None:
        if self.disabled_:
            self.n_dropped_ += n_events
            return None
        for _ in range(self.retries + 1):
            try:
                send(payload)
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                self.n_errors_ += 1
                self.last_error_ = exc
                continue
            self.consecutive_errors_ = 0
            return None
        self.consecutive_errors_ += 1
        self.n_dropped_ += n_events
        if self.consecutive_errors_ < self.max_consecutive_errors:
            return None
        self.disabled_ = True
        log_event(
            logging.WARNING,
            "sink_disabled",
            logger_=_logger,
            sink=type(self.inner).__name__,
            n_errors=self.n_errors_,
            consecutive=self.consecutive_errors_,
            last_error=repr(self.last_error_),
        )
        return SinkDisabled(
            sink=type(self.inner).__name__,
            n_errors=self.n_errors_,
            reason=(
                f"{self.consecutive_errors_} consecutive emit failures, "
                f"last: {self.last_error_!r}"
            ),
        )

    def close(self) -> None:
        try:
            self.inner.close()
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            self.n_errors_ += 1
            self.last_error_ = exc
            log_event(
                logging.WARNING,
                "sink_close_failed",
                logger_=_logger,
                sink=type(self.inner).__name__,
                error=repr(exc),
            )


def wrap_sinks(sinks: Sequence[Any]) -> list[ResilientSink]:
    """Wrap every sink in a :class:`ResilientSink` (idempotent)."""
    return [
        sink if isinstance(sink, ResilientSink) else ResilientSink(sink)
        for sink in sinks
    ]


def emit_resilient(sinks: Sequence[ResilientSink], *events: Any) -> list[SinkDisabled]:
    """Emit ``events`` to every sink; broadcast any disabling to the survivors.

    Each sink receives all of ``events`` in one
    :meth:`ResilientSink.emit_many` call.  Returns the :class:`SinkDisabled`
    events produced by this call (empty in the healthy case), after
    delivering them to the still-enabled sinks so the operator's log records
    which sink went dark and why.  A survivor receives the notice after the
    whole batch, even when the failing sink went dark partway through it.
    """
    disabled: list[SinkDisabled] = []
    for sink in sinks:
        outcome = sink.emit_many(events)
        if outcome is not None:
            disabled.append(outcome)
    for notice in disabled:
        for sink in sinks:
            sink.emit(notice)
    return disabled


# -- retrying I/O ----------------------------------------------------------------
def call_with_retry(
    fn: Callable[[], Any],
    *,
    attempts: int = 3,
    backoff: float = 0.05,
    jitter_seed: int = 0,
    retry_on: tuple[type[BaseException], ...] = (OSError,),
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Call ``fn``, retrying transient failures with seeded-jitter backoff.

    The delay before retry ``i`` (1-based) is ``backoff * 2**(i-1)`` plus a
    deterministic jitter drawn from ``jitter_seed`` — reruns of the same
    seed back off identically, which keeps fault-injection tests and any
    timing-sensitive replay reproducible.  Only ``retry_on`` exceptions are
    retried (transient I/O by default); anything else — corruption errors,
    programming bugs — propagates immediately.  The last failure is
    re-raised once the attempt budget is exhausted.
    """
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    if backoff < 0:
        raise ValueError("backoff must be non-negative")
    rng = np.random.default_rng(jitter_seed)
    last: BaseException | None = None
    for attempt in range(attempts):
        try:
            return fn()
        except retry_on as exc:
            last = exc
            if attempt + 1 < attempts:
                delay = backoff * (2**attempt) * (1.0 + 0.25 * float(rng.random()))
                if delay > 0:
                    sleep(delay)
    assert last is not None
    raise last


# -- fault injection -------------------------------------------------------------
class FaultInjected(RuntimeError):
    """Raised by injected faults (a :class:`RaisingSink` emit, a torn write)."""


class RaisingSink:
    """Fault-injection wrapper: every ``every``-th emit raises instead.

    The raise happens *before* the inner emit, so the dropped event models a
    sink that failed to deliver.  ``close`` is forwarded untouched.
    """

    def __init__(self, sink: Any, *, every: int = 1) -> None:
        if every < 1:
            raise ValueError("every must be at least 1")
        self.inner = sink
        self.every = every
        self.n_calls_ = 0
        self.n_raised_ = 0

    def emit(self, event: Any) -> None:
        self.n_calls_ += 1
        if self.n_calls_ % self.every == 0:
            self.n_raised_ += 1
            raise FaultInjected(
                f"injected sink failure on emit #{self.n_calls_} "
                f"(every={self.every})"
            )
        self.inner.emit(event)

    def close(self) -> None:
        self.inner.close()


_FAULT_NAMES = ("sink_raise", "nan_rows", "torn_write", "stall")


@dataclass
class FaultInjector:
    """Deterministic, seeded injector for every failure class we tolerate.

    Build one from a spec string with :meth:`from_spec` (grammar in the
    module docstring) or directly from keyword arguments.  All injected
    faults are pure functions of ``(seed, position)`` — the same spec and
    seed poison the same rows and raise on the same emits on every run,
    which is what lets the chaos suite assert the degraded run equals the
    fault-free one.
    """

    seed: int = 0
    sink_raise_every: int | None = None
    nan_rate: float | None = None
    nan_every: int | None = None
    nan_rows: int = 1
    torn_write: bool = False
    stall_batch: int | None = None
    stall_seconds: float = 2.0
    spec: str = field(default="", repr=False)

    @classmethod
    def from_spec(cls, spec: str, *, seed: int = 0) -> "FaultInjector":
        """Parse a ``--inject-faults`` spec string (see module docstring)."""
        injector = cls(seed=seed, spec=spec)
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            name, _, raw_params = clause.partition("@")
            name = name.strip()
            if name not in _FAULT_NAMES:
                raise ValueError(
                    f"unknown fault {name!r} in spec {spec!r}; "
                    f"valid faults: {', '.join(_FAULT_NAMES)}"
                )
            params: dict[str, str] = {}
            if raw_params:
                for param in raw_params.split(","):
                    key, sep, value = param.partition("=")
                    if not sep or not key.strip() or not value.strip():
                        raise ValueError(
                            f"malformed parameter {param!r} in clause {clause!r} "
                            "(expected key=value)"
                        )
                    params[key.strip()] = value.strip()
            try:
                injector._apply_clause(name, params)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"invalid clause {clause!r}: {exc}") from exc
        return injector

    def _apply_clause(self, name: str, params: dict[str, str]) -> None:
        def _pop_int(key: str) -> int | None:
            return int(params.pop(key)) if key in params else None

        def _pop_float(key: str) -> float | None:
            return float(params.pop(key)) if key in params else None

        if name == "sink_raise":
            every = _pop_int("every")
            self.sink_raise_every = 1 if every is None else every
            if self.sink_raise_every < 1:
                raise ValueError("sink_raise every= must be at least 1")
        elif name == "nan_rows":
            self.nan_rate = _pop_float("rate")
            self.nan_every = _pop_int("every")
            rows = _pop_int("rows")
            if rows is not None:
                self.nan_rows = rows
            if (self.nan_rate is None) == (self.nan_every is None):
                raise ValueError("nan_rows needs exactly one of rate= or every=")
            if self.nan_rate is not None and not 0.0 <= self.nan_rate <= 1.0:
                raise ValueError("nan_rows rate= must be in [0, 1]")
        elif name == "stall":
            self.stall_batch = _pop_int("batch")
            seconds = _pop_float("seconds")
            if seconds is not None:
                self.stall_seconds = seconds
            if self.stall_batch is None:
                raise ValueError("stall needs batch=")
            if self.stall_seconds < 0:
                raise ValueError("stall seconds= must be non-negative")
        else:  # torn_write
            self.torn_write = True
        if params:
            raise ValueError(f"unknown parameter(s) for {name}: {sorted(params)}")

    # -- descriptions ------------------------------------------------------------
    def describe(self) -> str:
        """One-line human summary of the armed faults."""
        parts = []
        if self.sink_raise_every is not None:
            parts.append(f"sink raises every {self.sink_raise_every} emit(s)")
        if self.nan_rate is not None:
            parts.append(f"NaN rows at rate {self.nan_rate:g}")
        if self.nan_every is not None:
            parts.append(f"{self.nan_rows} NaN row(s) every {self.nan_every} batch(es)")
        if self.torn_write:
            parts.append("torn registry write")
        if self.stall_batch is not None:
            parts.append(
                f"stream stalls {self.stall_seconds:g}s before batch "
                f"{self.stall_batch}"
            )
        return "; ".join(parts) if parts else "no faults armed"

    # -- NaN bursts --------------------------------------------------------------
    def poisoned_rows(self, batch_index: int, n_rows: int) -> np.ndarray:
        """Deterministic row indices poisoned in batch ``batch_index``.

        A pure function of ``(seed, batch_index)`` — the chaos suite calls
        this again to delete exactly those rows from the reference stream.
        """
        if n_rows <= 0:
            return np.empty(0, dtype=np.intp)
        if self.nan_rate is not None:
            rng = np.random.default_rng([self.seed, batch_index])
            return np.flatnonzero(rng.random(n_rows) < self.nan_rate)
        if self.nan_every is not None and batch_index % self.nan_every == 0:
            rng = np.random.default_rng([self.seed, batch_index])
            k = min(self.nan_rows, n_rows)
            return np.sort(rng.choice(n_rows, size=k, replace=False))
        return np.empty(0, dtype=np.intp)

    def corrupt_stream(self, stream: Iterable[Any]) -> Iterator[Any]:
        """Yield the stream with the armed NaN bursts written into copies.

        Tuple items (``FlowStream`` yields ``(X, y)``) keep their shape;
        only the feature block is copied and poisoned.  An armed ``stall``
        clause sleeps before yielding its batch — modelling a stuck
        producer so the heartbeat watchdog's NOT_OK flip is testable with a
        deterministic trigger point.
        """
        for batch_index, item in enumerate(stream):
            if batch_index == self.stall_batch:
                time.sleep(self.stall_seconds)
            if isinstance(item, tuple) and len(item) >= 1:
                X, rest = item[0], item[1:]
            else:
                X, rest = item, None
            X = np.asarray(X)
            rows = self.poisoned_rows(batch_index, int(X.shape[0]) if X.ndim else 0)
            if rows.size:
                X = np.array(X, dtype=np.float64, copy=True)
                X[rows] = np.nan
            yield X if rest is None else (X, *rest)

    # -- sink faults -------------------------------------------------------------
    def wrap_sinks(self, sinks: Sequence[Any]) -> list[Any]:
        """Wrap sinks with the armed raising fault (no-op when not armed)."""
        if self.sink_raise_every is None:
            return list(sinks)
        return [RaisingSink(sink, every=self.sink_raise_every) for sink in sinks]

    # -- torn registry writes ----------------------------------------------------
    @staticmethod
    def tear_version(path: Any) -> str:
        """Simulate ``kill -9`` mid-publish on a published snapshot directory.

        Truncates ``arrays.npz`` to half its bytes when present (the
        manifest's SHA-256 no longer matches — the silent-corruption case);
        otherwise deletes ``manifest.json`` (death before the manifest was
        written).  Returns a description of the tear for logging.  The
        registry's recovery scan must quarantine the result either way.
        """
        from pathlib import Path

        path = Path(path)
        arrays = path / "arrays.npz"
        if arrays.is_file():
            data = arrays.read_bytes()
            arrays.write_bytes(data[: max(1, len(data) // 2)])
            return f"truncated {arrays} to half its bytes (sha mismatch)"
        manifest = path / "manifest.json"
        if manifest.is_file():
            manifest.unlink()
            return f"deleted {manifest} (torn before manifest write)"
        return f"nothing to tear at {path}"
