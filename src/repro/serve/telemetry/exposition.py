"""Prometheus text exposition rendered from a metrics snapshot.

:func:`render_prometheus` is a pure function from
:meth:`DetectionService.metrics_snapshot() <repro.serve.service.DetectionService.metrics_snapshot>`
output to the Prometheus `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ (version
0.0.4) — the ``/metrics`` endpoint of the live status server calls it on
every scrape.  Keeping the renderer snapshot-in/text-out makes it trivially
testable and keeps the HTTP layer free of metrics knowledge.

Mapping rules:

* metric names are sanitized (``.`` and other illegal characters become
  ``_``) and prefixed ``repro_``; counters gain the conventional ``_total``
  suffix;
* each metric family gets ``# HELP`` / ``# TYPE`` comment lines;
* histograms expose cumulative ``_bucket{le="..."}`` series (our snapshot
  stores *per-bucket* counts, so the renderer cumulates), a final
  ``le="+Inf"`` bucket equal to ``_count``, plus ``_sum`` and ``_count``.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

__all__ = ["render_prometheus"]

_ILLEGAL = re.compile(r"[^a-zA-Z0-9_:]")


def _name(raw: str, *, suffix: str = "") -> str:
    return "repro_" + _ILLEGAL.sub("_", raw) + suffix


def _value(value: Any) -> str:
    number = float(value)
    if number != number:  # NaN
        return "NaN"
    if number in (float("inf"), float("-inf")):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a registry snapshot as Prometheus text exposition format."""
    lines: list[str] = []

    for raw, entry in snapshot.get("counters", {}).items():
        name = _name(raw, suffix="_total")
        lines.append(f"# HELP {name} {raw} ({entry.get('unit', 'count')})")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_value(entry.get('value', 0))}")

    for raw, entry in snapshot.get("histograms", {}).items():
        name = _name(raw)
        lines.append(f"# HELP {name} {raw} ({entry.get('unit', 'seconds')})")
        lines.append(f"# TYPE {name} histogram")
        bounds = entry.get("bounds", ())
        bucket_counts = entry.get("bucket_counts", [])
        count = int(entry.get("count", 0))
        cumulative = 0
        for bound, n in zip(bounds, bucket_counts):
            cumulative += int(n)
            lines.append(f'{name}_bucket{{le="{_value(bound)}"}} {cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {count}')
        lines.append(f"{name}_sum {_value(entry.get('sum', 0.0))}")
        lines.append(f"{name}_count {count}")

    return "\n".join(lines) + "\n"
