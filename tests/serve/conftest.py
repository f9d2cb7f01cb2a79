"""Serve-suite configuration: numeric warnings are failures here.

The serving loop feeds rolling statistics from live traffic, where
degenerate inputs (zero-row batches, all-alert streams, empty refit windows)
are routine rather than exceptional.  A ``RuntimeWarning`` (NumPy's "Mean of
empty slice", invalid divides, ...) in this package means NaNs are leaking
into thresholds or drift statistics, so every test under ``tests/serve`` is
run with ``RuntimeWarning`` escalated to an error.

Every test must also release the threads it starts: a thread still alive
after the test returns (and a short grace to finish exiting) fails it.

The :func:`torn_write` fixture injects a torn write into the JSONL
appender, for the crash-safety tests of ``events.jsonl``, span traces and
registry lineage.
"""

from __future__ import annotations

import builtins
import errno
import threading
import time
from pathlib import Path

import pytest

from repro.serve import sinks

_SERVE_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    for item in items:
        if str(item.fspath).startswith(str(_SERVE_DIR)):
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))


#: Name prefix of the process-wide row-block pool's threads
#: (``repro.ml.parallel``): shared by design, started by the first parallel
#: call and never shut down.
_SHARED_POOL_PREFIX = "repro-rowblock"
#: Seconds a test's threads get, together, to finish exiting.
_THREAD_EXIT_GRACE_S = 2.0


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a new live thread behind."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + _THREAD_EXIT_GRACE_S
    leaked = []
    for thread in threading.enumerate():
        if thread in before or thread.name.startswith(_SHARED_POOL_PREFIX):
            continue
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            leaked.append(thread.name)
    if leaked:
        pytest.fail(f"test left live threads behind: {sorted(leaked)}")


class TornWrite:
    """Fault for the JSONL appender: the next write tears, then raises.

    While armed, the next append writes half its line to disk and raises
    ``OSError`` (a disk filling up mid-write).  With ``truncate_fails`` the
    appender's own truncate-back fails once too, so the torn bytes stay on
    disk until ``close()``.
    """

    def __init__(self) -> None:
        self.armed = False
        self.truncate_fails = False

    def arm(self, *, truncate_fails: bool = False) -> None:
        self.armed = True
        self.truncate_fails = truncate_fails


class _TornWriteHandle:
    def __init__(self, handle, fault: TornWrite) -> None:
        self._handle = handle
        self._fault = fault

    def write(self, data: bytes) -> int:
        if not self._fault.armed:
            return self._handle.write(data)
        self._fault.armed = False
        self._handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def truncate(self, size: int) -> int:
        if self._fault.truncate_fails:
            self._fault.truncate_fails = False
            raise OSError(errno.EIO, "Input/output error")
        return self._handle.truncate(size)

    def __getattr__(self, name: str):
        return getattr(self._handle, name)


@pytest.fixture
def torn_write(monkeypatch) -> TornWrite:
    """Route every ``JsonlSink`` append handle through a :class:`TornWrite`."""
    fault = TornWrite()

    def faulty_open(file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        return _TornWriteHandle(handle, fault) if mode == "ab" else handle

    monkeypatch.setattr(sinks, "open", faulty_open, raising=False)
    return fault
