"""Trace analyzer behind ``repro trace`` (span-JSONL in, verdicts out).

Reads one or more span files written by
:class:`~repro.serve.telemetry.tracing.SpanTracer` with
:func:`~repro.serve.sinks.read_events`, the one JSONL reader, rebuilds the
span tree from the deterministic ``trace_id``/``span_id``/``parent_span_id``
ids (the *file* lists children before parents — ids, not line order, carry
the structure), and derives:

* a per-stage aggregation table (count, total, mean, exact p50/p95/p99, max);
* a text tree / gantt rendering of the span forest;
* the critical path per round — the greedy longest-duration chain from each
  top-level span down to a leaf;
* ``--budget stage=ms`` assertions (repeatable) checked against a chosen
  aggregate (``--budget-metric``, default ``p95``) — any violation makes
  :func:`main` return 1, which is what CI latency gates key off.

:func:`tree_shape` and :func:`stage_multiset` are the comparison helpers
for span trees: two runs of one stream must produce identical shapes.

A torn final span (a run killed mid-write) is dropped with a warning, as
for every JSONL file; any other line that is not a JSON object makes
``repro trace`` exit with a one-line message naming the file and line.
"""

from __future__ import annotations

import argparse
import math
import re
from collections import Counter
from typing import Any, Iterable, Mapping, Sequence

from ..sinks import read_events

__all__ = [
    "SpanNode",
    "build_forest",
    "check_budgets",
    "configure_parser",
    "critical_path",
    "main",
    "parse_budget",
    "render_gantt",
    "render_stage_table",
    "render_tree",
    "run",
    "stage_aggregate",
    "stage_multiset",
    "tree_shape",
]

BUDGET_METRICS = ("p50", "p95", "p99", "max", "mean", "total")

_ID_PART = re.compile(r"^([A-Za-z_]*)(\d+)$")


def _id_key(span_id: str | None) -> tuple:
    """Sort key ordering dotted ids numerically (``2.s10.3`` after ``2.s2.1``)."""
    if span_id is None:
        return ((),)
    parts = []
    for part in str(span_id).split("."):
        m = _ID_PART.match(part)
        if m:
            parts.append((m.group(1), int(m.group(2))))
        else:
            parts.append((part, -1))
    return tuple(parts)


class SpanNode:
    """One span plus its children, ordered by span id."""

    __slots__ = ("span", "children")

    def __init__(self, span: Mapping[str, Any]) -> None:
        self.span = span
        self.children: list[SpanNode] = []

    @property
    def stage(self) -> str:
        return str(self.span.get("stage", "?"))

    @property
    def seconds(self) -> float:
        try:
            return float(self.span.get("seconds", 0.0))
        except (TypeError, ValueError):
            return 0.0

    @property
    def span_id(self) -> str | None:
        value = self.span.get("span_id")
        return None if value is None else str(value)

    def sort(self) -> None:
        self.children.sort(key=lambda n: _id_key(n.span_id))
        for child in self.children:
            child.sort()


def build_forest(spans: Iterable[Mapping[str, Any]]) -> list[SpanNode]:
    """Rebuild the span forest from ids; id-less spans become roots.

    A span whose ``parent_span_id`` never shows up (parent crashed before
    its ``__exit__``) is promoted to a root rather than dropped.
    """
    spans = list(spans)
    by_id: dict[tuple[Any, str], SpanNode] = {}
    nodes: list[SpanNode] = []
    for span in spans:
        node = SpanNode(span)
        nodes.append(node)
        if span.get("span_id") is not None:
            by_id[(span.get("trace_id"), str(span["span_id"]))] = node
    roots: list[SpanNode] = []
    for node in nodes:
        parent_id = node.span.get("parent_span_id")
        parent = (
            by_id.get((node.span.get("trace_id"), str(parent_id)))
            if parent_id is not None
            else None
        )
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    roots.sort(key=lambda n: _id_key(n.span_id))
    for root in roots:
        root.sort()
    return roots


def _elide(roots: list[SpanNode], stages: frozenset[str]) -> list[SpanNode]:
    """Splice elided stages out, promoting their children in place."""
    out: list[SpanNode] = []
    for node in roots:
        children = _elide(node.children, stages)
        if node.stage in stages:
            out.extend(children)
        else:
            clone = SpanNode(node.span)
            clone.children = children
            out.append(clone)
    return out


def tree_shape(
    spans: Iterable[Mapping[str, Any]], *, elide: Sequence[str] = ()
) -> tuple:
    """The span forest as nested ``(stage, children)`` tuples.

    Two runs have the same *tree shape* iff these structures are equal —
    ids and timings are dropped, parent/child edges and sibling order (by
    span id) are kept.  ``elide`` splices wrapper stages out, promoting
    their children in place.
    """

    def shape(node: SpanNode) -> tuple:
        return (node.stage, tuple(shape(c) for c in node.children))

    roots = build_forest(spans)
    if elide:
        roots = _elide(roots, frozenset(elide))
    return tuple(shape(root) for root in roots)


def stage_multiset(
    spans: Iterable[Mapping[str, Any]], *, elide: Sequence[str] = ()
) -> Counter:
    """Stage-name multiset (order-free stage-coverage comparison)."""
    skip = frozenset(elide)
    return Counter(
        str(span.get("stage", "?"))
        for span in spans
        if str(span.get("stage", "?")) not in skip
    )


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


def critical_path(root: SpanNode) -> list[SpanNode]:
    """Greedy longest-duration chain from ``root`` down to a leaf."""
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda n: (n.seconds, _id_key(n.span_id)))
        path.append(node)
    return path


def _label(node: SpanNode) -> str:
    bits = [node.stage]
    if node.span.get("batch_index") is not None:
        bits.append(f"#{node.span['batch_index']}")
    if node.span.get("retry"):
        bits.append(f"retry={node.span['retry']}")
    if node.span.get("error"):
        bits.append(f"error={node.span['error']}")
    return " ".join(bits)


def render_tree(roots: list[SpanNode]) -> str:
    """Indented text tree with per-span durations and ids."""
    lines: list[str] = []

    def walk(node: SpanNode, depth: int) -> None:
        span_id = node.span_id or "-"
        lines.append(
            f"{'  ' * depth}{_label(node)}  "
            f"[{span_id}]  {node.seconds * 1e3:.3f} ms"
        )
        for child in node.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def render_gantt(roots: list[SpanNode], *, width: int = 48) -> str:
    """Text gantt: one bar per span, offset/scaled to the trace extent."""
    flat: list[SpanNode] = []

    def walk(node: SpanNode) -> None:
        flat.append(node)
        for child in node.children:
            walk(child)

    for root in roots:
        walk(root)
    if not flat:
        return "(empty trace)"
    t0 = min(float(n.span.get("t_offset_s", 0.0) or 0.0) for n in flat)
    t1 = max(
        float(n.span.get("t_offset_s", 0.0) or 0.0) + n.seconds for n in flat
    )
    extent = max(t1 - t0, 1e-9)
    lines = []
    for node in flat:
        start = float(node.span.get("t_offset_s", 0.0) or 0.0) - t0
        lead = int(start / extent * width)
        bar = max(1, int(node.seconds / extent * width))
        lines.append(
            f"{_label(node):<28.28} |{' ' * lead}{'#' * bar:<{width - lead}}| "
            f"{node.seconds * 1e3:.3f} ms"
        )
    return "\n".join(lines)


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
    *,
    metric: str = "p95",
) -> list[dict[str, Any]]:
    """Evaluate budgets (ms) against the chosen aggregate metric.

    Returns one verdict dict per budget; an unknown stage is a violation
    too (a budget on a stage that never ran is a misconfigured gate, and a
    gate that silently passes is worse than one that fails loudly).
    """
    verdicts = []
    for stage in sorted(budgets):
        limit_ms = budgets[stage]
        agg = aggregate.get(stage)
        observed_ms = agg[metric] * 1e3 if agg is not None else None
        met = observed_ms is not None and observed_ms <= limit_ms
        verdicts.append(
            {
                "stage": stage,
                "metric": metric,
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
        "--view",
        choices=("summary", "tree", "gantt", "all"),
        default="summary",
        help="what to print (default: summary table + critical paths)",
    )
    parser.add_argument(
        "--budget",
        action="append",
        default=[],
        metavar="STAGE=MS",
        help="per-stage latency budget in ms (repeatable); any violation "
        "exits 1",
    )
    parser.add_argument(
        "--budget-metric",
        choices=BUDGET_METRICS,
        default="p95",
        help="aggregate the budgets are checked against (default: p95)",
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
    roots = build_forest(spans)
    if args.view in ("summary", "all"):
        print()
        print(render_stage_table(aggregate))
        print()
        print("critical paths (greedy longest chain per top-level span):")
        worst: tuple[float, str] | None = None
        for root in roots:
            path = critical_path(root)
            total_ms = sum(n.seconds for n in path) * 1e3
            text = " > ".join(_label(n) for n in path)
            print(f"  {total_ms:>9.3f} ms  {text}")
            if worst is None or total_ms > worst[0]:
                worst = (total_ms, text)
        if worst is not None:
            print(f"worst: {worst[0]:.3f} ms  {worst[1]}")
    if args.view in ("tree", "all"):
        print()
        print(render_tree(roots))
    if args.view in ("gantt", "all"):
        print()
        print(render_gantt(roots))

    failed = False
    if budgets:
        print()
        for verdict in check_budgets(
            aggregate, budgets, metric=args.budget_metric
        ):
            observed = verdict["observed_ms"]
            observed_text = (
                f"{observed:.3f} ms" if observed is not None else "absent"
            )
            print(
                f"budget {verdict['stage']} {args.budget_metric} "
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
