"""One JSONL record log: the appender and reader behind every serve file.

Sink events (``events.jsonl``), span traces (:class:`SpanTracer`) and
registry lineage (``history.jsonl``) are all written by
:class:`~repro.serve.sinks.JsonlSink` and read by
:func:`~repro.serve.sinks.read_events`.  Every contract here is checked on
all three files, through each file's own public writer and reader:

* the reader skips blank lines, drops a torn final record with a warning,
  and raises ``ValueError`` naming the line for any other bad line;
* the appender cuts a torn tail back before it writes, so a record
  appended after a crash is not glued onto the torn bytes;
* a write that fails halfway leaves the file at its last complete record;
* a batch of events is one write of all its lines, byte-identical to one
  ``json.dumps(record, sort_keys=True)`` line per record, and a failed or
  short batch write leaves none of the batch behind;
* every record reaches the OS as it is written, so a killed process loses
  none of the records it finished.
"""

from __future__ import annotations

import builtins
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.novelty import IsolationForest
from repro.serve import sinks
from repro.serve.drift import DriftMonitor
from repro.serve.faults import QuarantinedRows
from repro.serve.lifecycle import FullRefit, LifecycleManager, WindowBuffer
from repro.serve.registry import ModelRegistry
from repro.serve.service import Alert, DetectionService, DriftEvent
from repro.serve.sinks import JsonlSink, ListSink, read_events
from repro.serve.telemetry import SpanTracer

pytestmark = pytest.mark.serve

RECORDS = [{"stage": "a", "seq": 0}, {"stage": "b", "seq": 1}]
TORN = '{"stage": "to'


class _Event:
    """A sink event: anything exposing ``to_dict()``."""

    def __init__(self, record: dict) -> None:
        self.record = record

    def to_dict(self) -> dict:
        return self.record


class _Channel:
    """One JSONL file kind, driven through its own public writer and reader."""

    def __init__(self, kind: str, tmp_path: Path) -> None:
        self.kind = kind
        self.registry = ModelRegistry(tmp_path / "registry")
        self.path = (
            self.registry.history_path("ids")
            if kind == "history"
            else tmp_path / f"{kind}.jsonl"
        )

    def writer(self):
        """A fresh writer (a new process, for the file): ``(put, close)``."""
        if self.kind == "events":
            sink = JsonlSink(self.path)
            return (lambda record: sink.emit(_Event(record))), sink.close
        if self.kind == "spans":
            tracer = SpanTracer(str(self.path))
            return tracer.record, tracer.close
        return (lambda record: self.registry.append_history("ids", record)), (
            lambda: None
        )

    def write(self, records: list[dict]) -> None:
        put, close = self.writer()
        try:
            for record in records:
                put(record)
        finally:
            close()

    def read(self) -> list[dict]:
        if self.kind == "history":
            return self.registry.history("ids")
        return read_events(self.path)

    def append_text(self, text: str) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(text)


@pytest.fixture(params=["events", "spans", "history"])
def channel(request, tmp_path) -> _Channel:
    return _Channel(request.param, tmp_path)


def _quietly(read) -> list[dict]:
    """``read()``, failing on any warning (a clean file reads silently)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return read()


class TestReader:
    @pytest.mark.parametrize("tail", [TORN, TORN + "\n\n"], ids=["eof", "blanks"])
    def test_torn_tail_is_dropped_with_a_warning(self, channel, tail):
        channel.write(RECORDS)
        channel.append_text(tail)
        with pytest.warns(UserWarning, match=r"truncated trailing record at .*:3"):
            records = channel.read()
        assert records == RECORDS

    def test_trailing_blank_lines_are_ignored(self, channel):
        channel.write(RECORDS)
        channel.append_text("\n\n  \n")
        assert _quietly(channel.read) == RECORDS

    def test_mid_file_corruption_raises_naming_the_line(self, channel):
        channel.write(RECORDS)
        lines = channel.path.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0][:-4]  # corrupt a *non*-trailing record
        channel.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{channel.path}:1:")):
            channel.read()

    def test_a_record_that_is_not_an_object_raises(self, channel):
        channel.write(RECORDS)
        channel.append_text("[1, 2]\n")
        with pytest.raises(ValueError, match=r":3: record is not a JSON object"):
            channel.read()


class TestAppender:
    def test_append_after_a_torn_tail_keeps_old_and_new(self, channel):
        channel.write(RECORDS[:1])
        channel.append_text(TORN)
        channel.write(RECORDS[1:])
        assert _quietly(channel.read) == RECORDS

    def test_a_whole_last_record_gets_its_newline(self, channel):
        channel.write(RECORDS[:1])
        text = channel.path.read_text(encoding="utf-8")
        channel.path.write_text(text.rstrip("\n"), encoding="utf-8")
        channel.write(RECORDS[1:])
        assert _quietly(channel.read) == RECORDS

    def test_clean_records_are_sorted_key_lines(self, channel):
        channel.write([{"seq": 0, "b": 1, "a": 2}])
        assert channel.path.read_bytes() == b'{"a": 2, "b": 1, "seq": 0}\n'

    @pytest.mark.parametrize("kind", ["events", "spans"])
    def test_failed_write_keeps_the_last_complete_record(
        self, kind, tmp_path, torn_write
    ):
        channel = _Channel(kind, tmp_path)
        put, close = channel.writer()
        put(RECORDS[0])
        torn_write.arm()
        with pytest.raises(OSError):
            put({"stage": "lost"})
        assert channel.path.read_text(encoding="utf-8").endswith("\n")
        assert _quietly(channel.read) == RECORDS[:1]
        put(RECORDS[1])
        close()
        assert _quietly(channel.read) == RECORDS

    def test_append_history_retries_to_exactly_one_new_record(
        self, tmp_path, torn_write
    ):
        channel = _Channel("history", tmp_path)
        channel.write(RECORDS[:1])
        torn_write.arm()
        channel.write(RECORDS[1:])  # the first attempt tears, the retry lands
        assert not torn_write.armed
        assert _quietly(channel.read) == RECORDS


#: Records whose encoding has corners: key order, floats, escapes, NaN.
ODD_RECORDS = [
    {"z": 1, "a": {"y": [1, 2.5, None], "b": True}, "m": -0.0},
    {"score": 0.1 + 0.2, "tiny": 1e-300, "big": 2**70, "nan": float("nan")},
    {"text": "café ✓ \"quoted\"\n", "inf": float("inf"), "neg": -float("inf")},
]


def _dumps_lines(records) -> bytes:
    """The per-record reference encoding: one ``json.dumps`` line each."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()


class _ShortWriteHandle:
    """An append handle whose next write lands only half its bytes."""

    def __init__(self, handle) -> None:
        self._handle = handle
        self.armed = False
        self.n_writes = 0

    def write(self, data: bytes) -> int:
        self.n_writes += 1
        if not self.armed:
            return self._handle.write(data)
        self.armed = False
        return self._handle.write(data[: len(data) // 2])

    def __getattr__(self, name: str):
        return getattr(self._handle, name)


@pytest.fixture
def short_write(monkeypatch):
    """Route the ``JsonlSink`` append handle through :class:`_ShortWriteHandle`."""
    handles: list[_ShortWriteHandle] = []

    def wrapping_open(file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        if mode != "ab":
            return handle
        handles.append(_ShortWriteHandle(handle))
        return handles[-1]

    monkeypatch.setattr(sinks, "open", wrapping_open, raising=False)
    return handles


class TestBatchedWrite:
    def test_every_writer_matches_per_record_dumps(self, channel):
        channel.write(ODD_RECORDS)
        assert channel.path.read_bytes() == _dumps_lines(ODD_RECORDS)

    def test_emit_many_is_one_write_of_every_line(self, tmp_path, short_write):
        sink = JsonlSink(tmp_path / "events.jsonl")
        sink.emit_many([_Event(r) for r in ODD_RECORDS + RECORDS])
        assert short_write[0].n_writes == 1
        assert sink.n_written == len(ODD_RECORDS) + len(RECORDS)
        sink.emit_many([])  # an empty batch writes nothing
        assert short_write[0].n_writes == 1
        sink.close()
        assert sink.path.read_bytes() == _dumps_lines(ODD_RECORDS + RECORDS)

    def test_a_torn_batch_leaves_the_last_complete_line(self, tmp_path, torn_write):
        sink = JsonlSink(tmp_path / "events.jsonl")
        sink.emit_many([_Event(r) for r in RECORDS])
        torn_write.arm()
        with pytest.raises(OSError):
            sink.emit_many([_Event(r) for r in ODD_RECORDS])
        assert sink.path.read_bytes() == _dumps_lines(RECORDS)
        sink.emit_many([_Event(r) for r in ODD_RECORDS])  # the retry lands whole
        sink.close()
        assert sink.path.read_bytes() == _dumps_lines(RECORDS + ODD_RECORDS)
        assert sink.n_written == len(RECORDS) + len(ODD_RECORDS)

    def test_a_short_batch_write_is_cut_back(self, tmp_path, short_write):
        sink = JsonlSink(tmp_path / "events.jsonl")
        sink.emit(_Event(RECORDS[0]))
        short_write[0].armed = True
        with pytest.raises(OSError, match="short write"):
            sink.emit_many([_Event(r) for r in ODD_RECORDS])
        assert sink.path.read_bytes() == _dumps_lines(RECORDS[:1])
        sink.emit_many([_Event(RECORDS[1]), _Event(RECORDS[0])])
        sink.close()
        assert _quietly(lambda: read_events(sink.path)) == [
            RECORDS[0], RECORDS[1], RECORDS[0]
        ]


class TestAlertLines:
    #: Signed zero, the smallest subnormal, the largest finite float, values
    #: whose repr switches to exponent form, and the non-finite ones.
    FLOATS = [
        0.0, -0.0, 5e-324, 1e-7, 1 / 3, 1e16, 1.7976931348623157e308,
        float("inf"), -float("inf"), float("nan"),
    ]
    INDICES = [0, 2**63 - 1]

    def test_the_template_line_is_the_generic_encoding(self, tmp_path):
        alerts = [
            Alert(batch_index, sample_index, score, threshold)
            for batch_index, sample_index, score, threshold in itertools.product(
                self.INDICES, self.INDICES, self.FLOATS, self.FLOATS
            )
        ]
        for alert in alerts:
            assert alert.to_json_line() == sinks._ENCODER.encode(alert.to_dict()) + "\n"
        sink = JsonlSink(tmp_path / "events.jsonl")
        sink.emit_many(alerts)
        sink.close()
        assert sink.path.read_bytes() == _dumps_lines([a.to_dict() for a in alerts])


class TestServiceEventsFile:
    """``events.jsonl`` of a full serving run, byte for byte."""

    def test_matches_per_event_dumps_in_pipeline_order(self, tmp_path):
        rng = np.random.default_rng(5)
        detector = IsolationForest(n_estimators=15, random_state=0).fit(
            rng.normal(size=(800, 5))
        )
        path = tmp_path / "events.jsonl"
        sink, seen = JsonlSink(path), ListSink()
        manager = LifecycleManager(
            FullRefit(lambda: IsolationForest(n_estimators=15, random_state=0)),
            buffer=WindowBuffer(512),
            min_refit_rows=64,
            sinks=[sink, seen],
        )
        monitor = DriftMonitor(window=256, min_samples=128, cooldown=4)
        pre = rng.normal(size=(600, 5))
        monitor.set_reference(detector.score_samples(pre), pre)
        service = DetectionService(
            detector,
            threshold="rolling",
            min_rolling=32,
            drift_monitor=monitor,
            lifecycle=manager,
            sinks=[sink, seen],
        )
        batches = [rng.normal(size=(128, 5)) for _ in range(4)]
        batches += [rng.normal(size=(128, 5)) + 5.0 for _ in range(8)]
        batches[1][[3, 70], 2] = np.nan
        batches[6][0, 0] = np.inf

        results, lifecycle_ends = [], []
        for X in batches:
            results.append(service.process_batch(X))
            lifecycle_ends.append(len(manager.events))
        sink.close()

        # Today's order, rebuilt from the results: quarantine -> alerts ->
        # drift -> lifecycle.
        expected, start = [], 0
        for result, end in zip(results, lifecycle_ends):
            if result.quarantined:
                expected.append(QuarantinedRows(
                    result.index, result.quarantined, result.quarantine_reason
                ))
            expected.extend(result.alerts)
            if result.drift is not None and result.drift.drifted:
                expected.append(DriftEvent(result.index, result.drift))
            expected.extend(manager.events[start:end])
            start = end
        records = [e.to_dict() for e in expected]
        assert {r["type"] for r in records} == {
            "quarantined_rows", "alert", "drift", "lifecycle"
        }
        assert any(e.swapped for e in manager.events)
        assert path.read_bytes() == _dumps_lines(records)


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src_dir}{os.pathsep}{existing}" if existing else src_dir
    return env


_EMIT_THEN_DIE = """
import os, sys
from repro.serve.service import Alert
from repro.serve.sinks import JsonlSink

sink = JsonlSink(sys.argv[1])
for i in range(int(sys.argv[2])):
    sink.emit(Alert(batch_index=i // 256, sample_index=i, score=1.0, threshold=0.5))
os._exit(0)  # killed: no close(), no interpreter shutdown
"""


def test_a_killed_process_keeps_every_emitted_event(tmp_path):
    path = tmp_path / "events.jsonl"
    n = 1000
    subprocess.run(
        [sys.executable, "-c", _EMIT_THEN_DIE, str(path), str(n)],
        env=_subprocess_env(),
        check=True,
        timeout=120,
    )
    events = _quietly(lambda: read_events(path))
    assert [event["sample_index"] for event in events] == list(range(n))

