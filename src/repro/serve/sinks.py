"""Pluggable sinks for the structured events a :class:`DetectionService` emits.

A sink receives every :class:`~repro.serve.service.Alert` and
:class:`~repro.serve.service.DriftEvent` (anything exposing ``to_dict()``).
Sinks must be cheap: they run inside the scoring loop.  Implementations here
cover the three deployment staples — keep events in memory (tests,
notebooks), append them to a JSONL file (log shippers), or hand them to a
callback (paging, metrics counters).

A sink may also implement ``emit_many(events)`` to take a whole batch in one
call; :class:`~repro.serve.faults.ResilientSink` uses it when present and
otherwise delivers the batch event by event.

Every JSONL file of :mod:`repro.serve` — sink events, span traces and
registry lineage — is written by :class:`JsonlSink` and read by
:func:`read_events`: one sorted-key JSON object per line.  Each emit or
append call is one ``write(2)`` of all its lines, done before the call
returns, so a :class:`~repro.serve.service.DetectionService` has written a
batch's events before ``process_batch`` returns.  A crash loses at most the
batch being written: the torn line it may leave is cut off by the next
writer and skipped by :func:`read_events`, never read as a partial record.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import warnings
from pathlib import Path
from typing import IO, Any, Callable, Protocol, Sequence

__all__ = ["AlertSink", "ListSink", "JsonlSink", "CallbackSink", "read_events"]

#: One shared encoder, byte-identical to ``json.dumps(record, sort_keys=True)``,
#: which builds a new one on every call.
_ENCODER = json.JSONEncoder(sort_keys=True)


def read_events(path: str | Path) -> list[dict]:
    """Load the records :class:`JsonlSink` wrote, in file order.

    Blank lines are skipped.  An unparseable final record (a process killed
    mid-append) is dropped with a ``UserWarning`` and a ``jsonl_torn_tail``
    log record.  Any other line that is not a JSON object raises
    ``ValueError`` naming the path and line.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    last = max((i for i, line in enumerate(lines) if line.strip()), default=-1)
    records: list[dict] = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if i != last:
                raise ValueError(f"{path}:{i + 1}: not a JSON record") from exc
            from repro.serve.telemetry.log import log_event  # avoids an import cycle

            log_event(logging.WARNING, "jsonl_torn_tail", path=str(path), line=i + 1)
            warnings.warn(
                f"skipping truncated trailing record at {path}:{i + 1} "
                "(crash mid-append)", UserWarning, stacklevel=2,
            )
            break
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{i + 1}: record is not a JSON object")
        records.append(record)
    return records


def _repair_tail(handle: IO[bytes]) -> None:
    """End the file on a newline: cut a torn last record off, or terminate
    a whole one that only lacks its newline."""
    end = cut = handle.seek(0, os.SEEK_END)
    while cut > 0:
        step = min(cut, 4096)
        handle.seek(cut - step)
        newline = handle.read(step).rfind(b"\n")
        if newline >= 0:
            cut += newline + 1 - step
            break
        cut -= step
    if cut == end:
        return
    handle.seek(cut)
    try:
        json.loads(handle.read())
        handle.write(b"\n")
    except ValueError:
        handle.truncate(cut)


class AlertSink(Protocol):
    """Protocol every sink implements."""

    def emit(self, event: Any) -> None:
        """Receive one event (exposes ``to_dict() -> dict``)."""
        ...  # pragma: no cover - protocol stub

    def close(self) -> None:
        """Flush and release resources; called by ``DetectionService.run``."""
        ...  # pragma: no cover - protocol stub


class ListSink:
    """Collect events in memory (``.events``); ideal for tests and notebooks."""

    def __init__(self) -> None:
        self.events: list[Any] = []

    def emit(self, event: Any) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink:
    """The JSONL appender: one sorted-key JSON object per line.

    The file opens lazily, in append mode, after a torn tail left by a killed
    writer is cut off, so it never glues onto the next record.
    :meth:`emit_many` encodes all its events and writes them with one
    ``write(2)`` under a lock; :meth:`emit` and :meth:`append` are the
    one-record calls of the same writer.  A write that raises or comes up
    short truncates back to the last complete line, dropping the whole call;
    :meth:`close` does the same and fsyncs.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.n_written = 0
        self._handle: IO[bytes] | None = None
        self._good_offset = 0
        self._lock = threading.Lock()

    def emit(self, event: Any) -> None:
        self._write([event.to_dict()])

    def emit_many(self, events: Sequence[Any]) -> None:
        """Write every event of a batch, in order, with one ``write(2)``."""
        self._write([event.to_dict() for event in events])

    def append(self, record: dict) -> None:
        """Write ``record`` as one line and flush it to the OS."""
        self._write([record])

    def _write(self, records: list[dict]) -> None:
        if not records:
            return
        data = "".join([_ENCODER.encode(r) + "\n" for r in records]).encode("utf-8")
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "ab+") as handle:
                    _repair_tail(handle)
                # Unbuffered: each write() is one write(2), i.e. one flush.
                self._handle = open(self.path, "ab", buffering=0)
                self._good_offset = self._handle.tell()
            try:
                if self._handle.write(data) != len(data):
                    raise OSError(f"short write to {self.path}")
            except BaseException:
                self._truncate_to_good()
                raise
            self._good_offset = self._handle.tell()
            self.n_written += len(records)

    def _truncate_to_good(self) -> None:
        """Drop a partially written trailing line (lock held, file open)."""
        try:
            if self._handle.tell() > self._good_offset:
                self._handle.truncate(self._good_offset)
        except OSError:
            pass

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._truncate_to_good()
                    os.fsync(self._handle.fileno())
                finally:
                    self._handle.close()
                    self._handle = None


class CallbackSink:
    """Forward every event to ``fn`` (metrics counters, pagers, queues)."""

    def __init__(self, fn: Callable[[Any], None]) -> None:
        self.fn = fn

    def emit(self, event: Any) -> None:
        self.fn(event)

    def close(self) -> None:
        pass
