"""Continuous resource profiling for the serve loop (``--profile-mem``).

:class:`MemoryProfiler` samples the process's resident set size and (when
enabled) :mod:`tracemalloc`'s current/peak Python-heap usage once per stage
event — the serve loop calls :meth:`sample` after each batch, so the
profile rides the same cadence as the heartbeat and costs nothing when the
flag is off.

Every sample lands in the metrics registry passed at construction:

* gauges ``mem.rss_bytes``, ``mem.tracemalloc_current_bytes`` and
  ``mem.tracemalloc_peak_bytes`` track the latest observation;
* a per-stage histogram ``stage.<stage>.rss_bytes`` (``bytes`` bucket grid)
  keeps the distribution for the run report.

Each sample also opens a ``mem_sample`` span (duration of the sample itself)
so the profiler's own overhead is visible in the trace — the span carries
**no trace context** on purpose: samples are wall-clock-driven and must not
perturb the deterministic span-tree shape the cross-mode tests compare.

RSS is read stdlib-only: ``/proc/self/statm`` (resident pages × page size)
where procfs exists, falling back to ``resource.getrusage().ru_maxrss``
(peak, in KiB on Linux) elsewhere.  No psutil.
"""

from __future__ import annotations

import os
import tracemalloc
from typing import Any, Mapping

from .metrics import MetricsRegistry
from .tracing import SpanTracer, trace_span

__all__ = ["MemoryProfiler", "read_rss_bytes"]

_STATM = "/proc/self/statm"
_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def read_rss_bytes() -> int:
    """Current resident set size in bytes, stdlib-only.

    Prefers ``/proc/self/statm`` (field 2 = resident pages); falls back to
    ``ru_maxrss`` — the *peak* RSS, close enough for trend-watching on
    platforms without procfs.  Returns 0 when neither source is readable.
    """
    try:
        with open(_STATM, "r", encoding="ascii") as fh:
            fields = fh.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024
    except (ImportError, OSError, ValueError):  # pragma: no cover - exotic
        return 0


class MemoryProfiler:
    """Samples RSS + tracemalloc into gauges/histograms and a run summary.

    Parameters
    ----------
    metrics:
        Registry the samples are recorded into (usually the service's).
    tracer:
        Optional span sink for the ``mem_sample`` spans.
    trace_python:
        Start :mod:`tracemalloc` for Python-heap current/peak tracking.
        Costs a constant factor on every allocation, so it is opt-in along
        with the profiler itself; the profiler only stops tracemalloc on
        :meth:`close` if it was the one that started it.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        *,
        tracer: SpanTracer | None = None,
        trace_python: bool = True,
    ) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.n_samples = 0
        self._rss_min = 0
        self._rss_max = 0
        self._tracemalloc_peak = 0
        self._owns_tracemalloc = False
        if trace_python and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    def sample(self, stage: str = "batch") -> dict[str, int]:
        """Take one sample attributed to ``stage``; returns the raw reading."""
        with trace_span(
            "mem_sample", metrics=self.metrics, tracer=self.tracer
        ):
            rss = read_rss_bytes()
            reading = {"rss_bytes": rss}
            self.metrics.gauge("mem.rss_bytes", unit="bytes").set(rss)
            self.metrics.histogram(
                f"stage.{stage}.rss_bytes", unit="bytes"
            ).observe(float(rss))
            if tracemalloc.is_tracing():
                current, peak = tracemalloc.get_traced_memory()
                reading["tracemalloc_current_bytes"] = current
                reading["tracemalloc_peak_bytes"] = peak
                self.metrics.gauge(
                    "mem.tracemalloc_current_bytes", unit="bytes"
                ).set(current)
                self.metrics.gauge(
                    "mem.tracemalloc_peak_bytes", unit="bytes"
                ).set(peak)
                self._tracemalloc_peak = max(self._tracemalloc_peak, peak)
        self.n_samples += 1
        if self._rss_min == 0 or rss < self._rss_min:
            self._rss_min = rss
        self._rss_max = max(self._rss_max, rss)
        return reading

    def summary(self) -> dict[str, Any]:
        """The ``memory`` section of ``run_summary.json``."""
        out: dict[str, Any] = {
            "n_samples": self.n_samples,
            "rss_min_bytes": self._rss_min,
            "rss_max_bytes": self._rss_max,
        }
        if self._tracemalloc_peak or tracemalloc.is_tracing():
            out["tracemalloc_peak_bytes"] = self._tracemalloc_peak
        return out

    def close(self) -> None:
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._owns_tracemalloc = False

    def __enter__(self) -> "MemoryProfiler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
