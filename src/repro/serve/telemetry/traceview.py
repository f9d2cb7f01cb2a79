"""Trace analyzer behind ``repro trace`` (span-JSONL in, verdicts out).

Reads one or more span files written by
:class:`~repro.serve.telemetry.tracing.SpanTracer` with
:func:`~repro.serve.sinks.read_events`, the one JSONL reader, and derives:

* a per-stage aggregation table (count, rows, total, mean, exact
  p50/p95/p99, max);
* ``--budget stage=ms`` assertions (repeatable) checked against each
  stage's p95 — any violation makes :func:`main` return 1, which is what
  CI latency gates key off.

A torn final span (a run killed mid-write) is dropped with a warning, as
for every JSONL file; any other line that is not a JSON object makes
``repro trace`` exit with a one-line message naming the file and line.
"""

from __future__ import annotations

import argparse
import math
from typing import Any, Iterable, Mapping, Sequence

from ..sinks import read_events

__all__ = [
    "check_budgets",
    "configure_parser",
    "main",
    "parse_budget",
    "render_stage_table",
    "run",
    "stage_aggregate",
]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Exact nearest-rank percentile on an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def stage_aggregate(
    spans: Iterable[Mapping[str, Any]],
) -> dict[str, dict[str, float]]:
    """Per-stage aggregation: count/total/mean/p50/p95/p99/max seconds."""
    durations: dict[str, list[float]] = {}
    rows: dict[str, int] = {}
    for span in spans:
        stage = str(span.get("stage", "?"))
        try:
            durations.setdefault(stage, []).append(float(span.get("seconds", 0.0)))
        except (TypeError, ValueError):
            durations.setdefault(stage, []).append(0.0)
        rows[stage] = rows.get(stage, 0) + int(span.get("rows", 0) or 0)
    out: dict[str, dict[str, float]] = {}
    for stage in sorted(durations):
        values = sorted(durations[stage])
        total = sum(values)
        out[stage] = {
            "count": float(len(values)),
            "rows": float(rows[stage]),
            "total": total,
            "mean": total / len(values),
            "p50": _percentile(values, 0.50),
            "p95": _percentile(values, 0.95),
            "p99": _percentile(values, 0.99),
            "max": values[-1],
        }
    return out


def render_stage_table(aggregate: Mapping[str, Mapping[str, float]]) -> str:
    header = (
        f"{'stage':<20} {'count':>6} {'rows':>8} {'total_ms':>10} "
        f"{'mean_ms':>9} {'p50_ms':>9} {'p95_ms':>9} {'p99_ms':>9} {'max_ms':>9}"
    )
    lines = [header, "-" * len(header)]
    for stage, agg in aggregate.items():
        lines.append(
            f"{stage:<20} {int(agg['count']):>6} {int(agg['rows']):>8} "
            f"{agg['total'] * 1e3:>10.3f} {agg['mean'] * 1e3:>9.3f} "
            f"{agg['p50'] * 1e3:>9.3f} {agg['p95'] * 1e3:>9.3f} "
            f"{agg['p99'] * 1e3:>9.3f} {agg['max'] * 1e3:>9.3f}"
        )
    return "\n".join(lines)


def parse_budget(spec: str) -> tuple[str, float]:
    """Parse one ``stage=ms`` budget spec; raises ``ValueError`` when torn."""
    stage, sep, value = spec.partition("=")
    if not sep or not stage:
        raise ValueError(f"budget must look like stage=ms, got {spec!r}")
    return stage.strip(), float(value)


def check_budgets(
    aggregate: Mapping[str, Mapping[str, float]],
    budgets: Mapping[str, float],
) -> list[dict[str, Any]]:
    """Evaluate budgets (ms) against each stage's p95.

    Returns one verdict dict per budget; an unknown stage is a violation
    too (a budget on a stage that never ran is a misconfigured gate, and a
    gate that silently passes is worse than one that fails loudly).
    """
    verdicts = []
    for stage in sorted(budgets):
        limit_ms = budgets[stage]
        agg = aggregate.get(stage)
        observed_ms = agg["p95"] * 1e3 if agg is not None else None
        met = observed_ms is not None and observed_ms <= limit_ms
        verdicts.append(
            {
                "stage": stage,
                "budget_ms": limit_ms,
                "observed_ms": observed_ms,
                "status": "MET" if met else "NOT_MET",
            }
        )
    return verdicts


def configure_parser(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the ``repro trace`` arguments (shared by CLI and module main)."""
    parser.add_argument("files", nargs="+", help="span JSONL file(s)")
    parser.add_argument(
        "--budget",
        action="append",
        default=[],
        metavar="STAGE=MS",
        help="per-stage p95 latency budget in ms (repeatable); any "
        "violation exits 1",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute the analyzer on parsed arguments; returns the exit code."""
    try:
        budgets = dict(parse_budget(spec) for spec in args.budget)
    except ValueError as exc:
        raise SystemExit(f"--budget: {exc}")

    spans: list[dict[str, Any]] = []
    for path in args.files:
        try:
            spans.extend(read_events(path))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read {path}: {exc}")
    print(f"spans: {len(spans)} from {len(args.files)} file(s)")
    if not spans:
        print("(empty trace)")
        return 1 if budgets else 0

    aggregate = stage_aggregate(spans)
    print()
    print(render_stage_table(aggregate))

    failed = False
    if budgets:
        print()
        for verdict in check_budgets(aggregate, budgets):
            observed = verdict["observed_ms"]
            observed_text = (
                f"{observed:.3f} ms" if observed is not None else "absent"
            )
            print(
                f"budget {verdict['stage']} p95 "
                f"<= {verdict['budget_ms']:g} ms: observed {observed_text} "
                f"-> {verdict['status']}"
            )
            failed = failed or verdict["status"] != "MET"
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = configure_parser(
        argparse.ArgumentParser(
            prog="repro trace",
            description="Analyze span-JSONL trace files written by repro serve.",
        )
    )
    return run(parser.parse_args(argv))
