"""Process-local metrics primitives for the serving stack.

:class:`MetricsRegistry` holds named :class:`Counter` and :class:`Histogram`
instruments with a flat dict export (:meth:`MetricsRegistry.snapshot`).
Every instrument is written by a :func:`~repro.serve.telemetry.trace_span`:
each span adds its wall time to a ``stage.<name>.seconds`` histogram and
its rows to a ``stage.<name>.rows`` counter.  The service's own counts
(batches, rows, alerts, ...) are not kept here; ``metrics_snapshot()`` adds
them to the snapshot as the ``pipeline.*`` counters.  Two properties shape
the design:

* **O(1) memory** — histograms bucket observations into one *fixed*
  log-spaced grid of seconds (:data:`SECONDS_BUCKETS`); only the per-bucket
  counts plus exact ``count``/``sum``/``min``/``max`` accumulate, never the
  samples.  Percentiles (:meth:`Histogram.percentile`) are estimated from
  the bucket counts by geometric interpolation, clamped to the observed
  range.
* **Deterministic counter values** — counts (rows, span calls) depend only
  on the stream, never on timing, so two runs over the same stream produce
  identical values; only wall-time *observations* differ run to run.

A snapshot leaves the process two ways: ``/metrics`` of the status endpoint
(:mod:`~repro.serve.telemetry.statusd`) while a run is live, and the
``metrics`` field of ``run_summary.json`` once it ends.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "log_spaced_buckets",
]


def log_spaced_buckets(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """``n`` log-spaced upper bounds from ``lo`` to ``hi`` (inclusive).

    ``bounds[i] = lo * (hi/lo)**(i/(n-1))`` — a fixed geometric grid.
    """
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < lo < hi for log-spaced buckets")
    if n < 2:
        raise ValueError("need at least 2 bucket bounds")
    ratio = hi / lo
    return tuple(lo * ratio ** (i / (n - 1)) for i in range(n))


#: The bucket grid of every histogram: 1 µs .. 100 s, 5 bounds per decade.
SECONDS_BUCKETS = log_spaced_buckets(1e-6, 100.0, 41)


class Counter:
    """Monotonic count."""

    __slots__ = ("name", "unit", "value")
    kind = "counter"

    def __init__(self, name: str, *, unit: str = "count") -> None:
        self.name = name
        self.unit = unit
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def export(self) -> dict:
        return {"value": self.value, "unit": self.unit}


class Histogram:
    """Histogram of durations in seconds, with exact ``count``/``sum``/``min``/``max``.

    :data:`SECONDS_BUCKETS` are inclusive upper edges; one overflow bucket
    past the last edge catches everything larger.  Memory is
    ``len(SECONDS_BUCKETS) + 1`` integers regardless of how many values are
    observed.
    """

    __slots__ = ("name", "counts", "count", "sum", "min", "max")
    kind = "histogram"
    unit = "seconds"
    bounds = SECONDS_BUCKETS

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, q: float) -> float:
        """Bucket-estimated ``q``-quantile (``q`` in [0, 1]), 0.0 when empty.

        The rank-``ceil(q * count)`` observation's bucket is located, the
        estimate is the geometric midpoint of its edges, and the result is
        clamped to the exact observed ``[min, max]`` — so a histogram with a
        single distinct value reports that value for every percentile.
        """
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        rank = max(1, min(self.count, int(q * self.count + 0.9999999999)))
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= rank:
                lo = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                if lo > 0 and hi > 0:
                    estimate = (lo * hi) ** 0.5
                else:
                    estimate = (lo + hi) / 2.0
                return float(min(self.max, max(self.min, estimate)))
        return float(self.max)  # pragma: no cover - counts always sum to count

    def export(self) -> dict:
        empty = self.count == 0
        return {
            "unit": self.unit,
            "count": self.count,
            "sum": self.sum,
            "min": 0.0 if empty else self.min,
            "max": 0.0 if empty else self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "bounds": list(self.bounds),
            "bucket_counts": list(self.counts),
        }


class MetricsRegistry:
    """Named instruments with get-or-create access and a dict snapshot.

    Instruments are created on first use (``registry.counter("stage.score.rows",
    unit="rows").inc(n)``); asking for an existing name with a different kind
    raises — one name, one meaning.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}

    def _get(self, name: str, kind: str, factory: Any) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = factory()
        elif instrument.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {instrument.kind}"
            )
        return instrument

    def counter(self, name: str, *, unit: str = "count") -> Counter:
        return self._get(name, "counter", lambda: Counter(name, unit=unit))

    def histogram(self, name: str) -> Histogram:
        return self._get(name, "histogram", lambda: Histogram(name))

    # -- export ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Flat dict export: ``{"counters": ..., "histograms": ...}``, names
        sorted, every value JSON-serializable."""
        snapshot: dict[str, dict] = {"counters": {}, "histograms": {}}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            snapshot[instrument.kind + "s"][name] = instrument.export()
        return snapshot
