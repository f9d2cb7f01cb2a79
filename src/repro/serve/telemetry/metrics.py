"""Process-local metrics primitives for the serving stack.

:class:`MetricsRegistry` holds named :class:`Counter` / :class:`Gauge` /
:class:`Histogram` instruments with a flat dict export
(:meth:`MetricsRegistry.snapshot`).  Two properties shape the design:

* **O(1) memory** — histograms bucket observations into a *fixed* log-spaced
  boundary grid (:func:`log_spaced_buckets`); only the per-bucket counts plus
  exact ``count``/``sum``/``min``/``max`` accumulate, never the samples.
  Percentiles (:meth:`Histogram.percentile`) are estimated from the bucket
  counts by geometric interpolation, clamped to the observed range.
* **Deterministic counter values** — counts (batches, rows, events, span
  calls) depend only on the stream, never on timing, so two runs over the
  same stream produce identical values; only wall-time *observations*
  differ run to run.

A snapshot leaves the process two ways: ``/metrics`` of the status endpoint
(:mod:`~repro.serve.telemetry.statusd`) while a run is live, and the
``metrics`` field of ``run_summary.json`` once it ends.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable

__all__ = [
    "Counter",
    "DISABLED",
    "Gauge",
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


#: Default bucket grids by unit: 1 µs .. 100 s for latencies (5 per decade)
#: and 1 .. ~1M for row counts (powers of two).
DEFAULT_BUCKETS: dict[str | None, tuple[float, ...]] = {
    "seconds": log_spaced_buckets(1e-6, 100.0, 41),
    "rows": tuple(float(2**k) for k in range(21)),
}
_GENERIC_BUCKETS = log_spaced_buckets(1e-3, 1e6, 46)


class Counter:
    """Monotonic count."""

    __slots__ = ("name", "unit", "help", "value")
    kind = "counter"

    def __init__(self, name: str, *, unit: str = "count", help: str = "") -> None:
        self.name = name
        self.unit = unit
        self.help = help
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def export(self) -> dict:
        return {"value": self.value, "unit": self.unit}


class Gauge:
    """Last-set value."""

    __slots__ = ("name", "unit", "help", "value")
    kind = "gauge"

    def __init__(self, name: str, *, unit: str = "value", help: str = "") -> None:
        self.name = name
        self.unit = unit
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def export(self) -> dict:
        return {"value": self.value, "unit": self.unit}


class Histogram:
    """Fixed-bucket histogram with exact ``count``/``sum``/``min``/``max``.

    ``bounds`` are inclusive upper edges; one overflow bucket past the last
    edge catches everything larger.  Memory is ``len(bounds) + 1`` integers
    regardless of how many values are observed.
    """

    __slots__ = ("name", "unit", "help", "bounds", "counts", "count", "sum",
                 "min", "max")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        *,
        unit: str = "seconds",
        buckets: Iterable[float] | None = None,
        help: str = "",
    ) -> None:
        self.name = name
        self.unit = unit
        self.help = help
        if buckets is None:
            buckets = DEFAULT_BUCKETS.get(unit, _GENERIC_BUCKETS)
        self.bounds = tuple(float(b) for b in buckets)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram buckets must be strictly increasing")
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


class _NullInstrument:
    """No-op stand-in with every instrument's write API (see :data:`DISABLED`)."""

    __slots__ = ()
    bounds: tuple[float, ...] = ()
    value = 0
    count = 0
    sum = 0.0
    min = 0.0
    max = 0.0

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def export(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments with get-or-create access and a dict snapshot.

    Instruments are created on first use (``registry.counter("pipeline.rows",
    unit="rows").inc(n)``); asking for an existing name with a different kind
    raises — one name, one meaning.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}
        self.enabled = True

    def _get(self, name: str, kind: str, factory: Any) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
            return instrument
        if instrument.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {instrument.kind}"
            )
        return instrument

    def counter(self, name: str, *, unit: str = "count", help: str = "") -> Counter:
        return self._get(name, "counter", lambda: Counter(name, unit=unit, help=help))

    def gauge(self, name: str, *, unit: str = "value", help: str = "") -> Gauge:
        return self._get(name, "gauge", lambda: Gauge(name, unit=unit, help=help))

    def histogram(
        self,
        name: str,
        *,
        unit: str = "seconds",
        buckets: Iterable[float] | None = None,
        help: str = "",
    ) -> Histogram:
        return self._get(
            name,
            "histogram",
            lambda: Histogram(name, unit=unit, buckets=buckets, help=help),
        )

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    # -- export ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Flat dict export: ``{"counters": ..., "gauges": ..., "histograms":
        ...}``, names sorted, every value JSON-serializable."""
        counters: dict[str, dict] = {}
        gauges: dict[str, dict] = {}
        histograms: dict[str, dict] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            {"counter": counters, "gauge": gauges, "histogram": histograms}[
                instrument.kind
            ][name] = instrument.export()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


class _DisabledRegistry(MetricsRegistry):
    """The no-op registry: every instrument lookup returns one shared null
    object, so instrumented code paths cost a dict-free method call and
    nothing else.  Used by the telemetry benchmark's "uninstrumented" arm
    (``DetectionService(telemetry=DISABLED)``)."""

    def __init__(self) -> None:
        super().__init__()
        self.enabled = False

    def counter(self, name: str, **kwargs: Any) -> Any:  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **kwargs: Any) -> Any:  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **kwargs: Any) -> Any:  # type: ignore[override]
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: Shared disabled registry: pass as ``telemetry=DISABLED`` to switch a
#: service's instrumentation off entirely.
DISABLED = _DisabledRegistry()
