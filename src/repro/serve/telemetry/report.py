"""Auditable run reports: sectioned MET/NOT_MET verdicts with evidence.

A serving run already leaves alerts, lifecycle lineage and (with telemetry)
a metrics snapshot behind — this module folds them into one reviewable
artifact pair, ``report.json`` (machine-readable) + ``report.md``
(human-readable), in the style of the dac_agent review exemplar: every
section carries an explicit verdict, every check carries its severity and
the evidence it was judged on.  Sections:

1. **Throughput** — did the stream complete with scored batches, and at
   what rate?
2. **Latency** — batch p50/p95/p99 and the per-stage span table from the
   metrics snapshot.  The span tree in ``trace.jsonl`` is analyzed and
   gated on per-stage budgets by ``repro trace``, not here.
3. **Timeline** — ordered alert/drift/quarantine/sink/swap events, with
   checks on degradations (no sink disabled, quarantine fraction bounded).
4. **Lifecycle** — the count of each lifecycle action; every swap carries a
   published version.
5. **Reproducibility** — config SHA-256, model artifact SHA-256s and the
   stream source are recorded in ``run_summary.json``.

Verdicts roll up mechanically: a section is **NOT_MET** when any *major*
check fails, **PARTIALLY_MET** when only *minor* checks fail, **MET**
otherwise; the overall verdict applies the same rule across all checks.
:func:`build_report` is pure (dict in, dict out — the golden-report test
locks its output for fixed inputs), :func:`render_markdown` is presentation
only, and :func:`render_run_report` re-renders after the fact from a run
directory's ``run_summary.json`` + ``events.jsonl`` (the ``repro serve
report`` CLI).
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from ..sinks import read_events

__all__ = [
    "build_report",
    "build_run_summary",
    "config_sha256",
    "load_run_dir",
    "render_markdown",
    "render_run_report",
    "write_report_files",
]

FORMAT_VERSION = 1

#: Event types that belong on the run timeline; records of any other type
#: (the ``metrics`` snapshots older runs wrote) are skipped.
_TIMELINE_TYPES = frozenset(
    {
        "alert",
        "drift",
        "quarantined_rows",
        "sink_disabled",
        "registry_recover",
        "lifecycle",
    }
)
#: Event fields worth carrying into a condensed timeline entry.
_TIMELINE_KEYS = (
    "batch_index",
    "reason",
    "sink",
    "n_errors",
    "action",
    "swapped",
    "published_version",
    "epoch",
)

_SHA256_HEX_LEN = 64


def _now_utc() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _round(value: Any) -> Any:
    """Round floats (recursively) so evidence blobs stay readable."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v) for v in value]
    return value


def config_sha256(config: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical-JSON form of ``config``.

    Canonical means sorted keys and no whitespace, so two runs with the same
    effective configuration hash identically regardless of dict order.
    """
    canonical = json.dumps(
        config, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _is_sha256(value: Any) -> bool:
    return (
        isinstance(value, str)
        and len(value) == _SHA256_HEX_LEN
        and all(c in "0123456789abcdef" for c in value)
    )


def build_run_summary(
    config: Mapping[str, Any],
    *,
    stream: Mapping[str, Any] | None = None,
    model: Mapping[str, Any] | None = None,
    service_report: Mapping[str, Any] | None = None,
    metrics: Mapping[str, Any] | None = None,
    generated_at: str | None = None,
) -> dict:
    """Assemble ``run_summary.json``: the reproducibility record of one run.

    ``config`` is hashed (:func:`config_sha256`); ``model`` should carry the
    snapshot-manifest facts (``name``, ``version``, ``artifacts`` mapping
    artifact names to SHA-256 hex digests); ``stream`` records the data
    source (dataset, scale, seed, batch size ...).
    """
    return {
        "format_version": FORMAT_VERSION,
        "generated_at": generated_at if generated_at is not None else _now_utc(),
        "config": dict(config),
        "config_sha256": config_sha256(config),
        "stream": dict(stream) if stream else None,
        "model": dict(model) if model else None,
        "service_report": dict(service_report) if service_report else None,
        "metrics": dict(metrics) if metrics else None,
    }


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _check(
    check_id: str,
    title: str,
    met: bool,
    *,
    severity: str = "major",
    evidence: Mapping[str, Any] | None = None,
) -> dict:
    return {
        "id": check_id,
        "title": title,
        "verdict": "MET" if met else "NOT_MET",
        "severity": severity,
        "evidence": _round(dict(evidence or {})),
    }


def _section_verdict(checks: Sequence[Mapping[str, Any]]) -> str:
    failed = [c for c in checks if c["verdict"] != "MET"]
    if any(c["severity"] == "major" for c in failed):
        return "NOT_MET"
    if failed:
        return "PARTIALLY_MET"
    return "MET"


def _condense_timeline(
    events: Iterable[Mapping[str, Any]], *, max_events: int
) -> tuple[list[dict], int]:
    """Order-preserving condensed timeline.

    Consecutive events of the same type in the same batch (e.g. per-sample
    alerts) collapse into one entry with an ``"n"`` count; entries past
    ``max_events`` are dropped (the count of dropped entries is returned so
    the report can say so instead of silently truncating).
    """
    condensed: list[dict] = []
    for event in events:
        kind = event.get("type")
        if kind not in _TIMELINE_TYPES:
            continue
        entry: dict[str, Any] = {"type": kind, "n": 1}
        for key in _TIMELINE_KEYS:
            if key in event and event[key] is not None:
                entry[key] = event[key]
        if "row_indices" in event:
            entry["n_rows"] = len(event["row_indices"])
        if (
            condensed
            and condensed[-1]["type"] == kind
            and condensed[-1].get("batch_index") == entry.get("batch_index")
            and kind == "alert"
        ):
            condensed[-1]["n"] += 1
            continue
        condensed.append(entry)
    truncated = max(0, len(condensed) - max_events)
    return condensed[:max_events], truncated


def _stage_table(metrics: Mapping[str, Any] | None) -> dict[str, dict]:
    """Per-stage latency table from a metrics snapshot's span histograms."""
    table: dict[str, dict] = {}
    for name, entry in (metrics or {}).get("histograms", {}).items():
        if not (name.startswith("stage.") and name.endswith(".seconds")):
            continue
        stage = name[len("stage.") : -len(".seconds")]
        table[stage] = {
            "count": entry.get("count", 0),
            "p50_s": entry.get("p50", 0.0),
            "p95_s": entry.get("p95", 0.0),
            "p99_s": entry.get("p99", 0.0),
        }
    return dict(sorted(table.items()))


def build_report(
    summary: Mapping[str, Any],
    *,
    metrics: Mapping[str, Any] | None = None,
    events: Sequence[Mapping[str, Any]] = (),
    run_info: Mapping[str, Any] | None = None,
    max_quarantined_fraction: float = 0.10,
    max_timeline_events: int = 50,
    generated_at: str | None = None,
    title: str = "Serving run report",
) -> dict:
    """Build the ``report.json`` payload (pure: dict in, dict out).

    ``summary`` is a ``ServiceReport.to_dict()``; ``events`` are sink-fabric
    event dicts in emission order (e.g. read back from ``events.jsonl``),
    lifecycle lineage included; ``run_info`` is a :func:`build_run_summary`
    payload.
    """
    summary = dict(summary)
    n_batches = int(summary.get("n_batches", 0))
    n_samples = int(summary.get("n_samples", 0))
    throughput = float(summary.get("throughput_samples_per_sec", 0.0))

    # -- 1. throughput ---------------------------------------------------------
    throughput_checks = [
        _check(
            "THR-01",
            "Stream completed with scored batches",
            n_batches > 0 and n_samples > 0,
            evidence={
                "n_batches": n_batches,
                "n_samples": n_samples,
                "total_time_s": summary.get("total_time_s", 0.0),
            },
        )
    ]
    throughput_data: dict[str, Any] = {
        "throughput_samples_per_sec": _round(throughput)
    }

    # -- 2. latency ------------------------------------------------------------
    p50 = float(summary.get("batch_latency_p50_s", 0.0))
    p95 = float(summary.get("batch_latency_p95_s", 0.0))
    p99 = float(summary.get("batch_latency_p99_s", 0.0))
    stages = _stage_table(metrics)
    latency_checks = [
        _check(
            "LAT-01",
            "Batch latency percentiles measured",
            n_batches == 0 or p50 > 0.0,
            evidence={"p50_s": p50, "p95_s": p95, "p99_s": p99},
        ),
        _check(
            "LAT-02",
            "Per-stage spans recorded in metrics snapshot",
            any(entry["count"] > 0 for entry in stages.values()),
            severity="minor",
            evidence={"n_stages": len(stages), "stages": sorted(stages)},
        ),
    ]

    # -- 3. timeline -----------------------------------------------------------
    timeline, truncated = _condense_timeline(
        events, max_events=max_timeline_events
    )
    event_counts: dict[str, int] = {}
    for event in events:
        kind = event.get("type")
        if kind in _TIMELINE_TYPES:
            event_counts[kind] = event_counts.get(kind, 0) + 1
    n_disabled = max(
        int(summary.get("n_disabled_sinks", 0)),
        event_counts.get("sink_disabled", 0),
    )
    n_quarantined = int(summary.get("n_quarantined", 0))
    seen_rows = n_samples + n_quarantined
    quarantined_fraction = n_quarantined / seen_rows if seen_rows else 0.0
    timeline_checks = [
        _check(
            "TL-01",
            "No alert sink was disabled",
            n_disabled == 0,
            evidence={"n_disabled_sinks": n_disabled},
        ),
        _check(
            "TL-03",
            f"Quarantined rows below {max_quarantined_fraction:.0%} of traffic",
            quarantined_fraction <= max_quarantined_fraction,
            severity="minor",
            evidence={
                "n_quarantined": n_quarantined,
                "quarantined_fraction": quarantined_fraction,
            },
        ),
    ]
    timeline_data: dict[str, Any] = {
        "event_counts": dict(sorted(event_counts.items())),
        "entries": _round(timeline),
    }
    if truncated:
        timeline_data["truncated"] = truncated

    # -- 4. lifecycle ----------------------------------------------------------
    lineage = [e for e in events if e.get("type") == "lifecycle"]
    actions: dict[str, int] = {}
    for event in lineage:
        action = event.get("action", "unknown")
        actions[action] = actions.get(action, 0) + 1
    swaps = [e for e in lineage if e.get("swapped")]
    unversioned_swaps = [e for e in swaps if not e.get("published_version")]
    lifecycle_checks = [
        _check(
            "LC-02",
            "Every swap carries a published registry version",
            not unversioned_swaps,
            severity="minor",
            evidence={
                "n_swaps": len(swaps),
                "n_unversioned": len(unversioned_swaps),
            },
        ),
    ]
    lifecycle_data = {"actions": dict(sorted(actions.items()))}

    # -- 5. reproducibility ----------------------------------------------------
    info = dict(run_info or {})
    model = dict(info.get("model") or {})
    artifacts = dict(model.get("artifacts") or {})
    artifact_hashes = {
        name: (value.get("sha256") if isinstance(value, Mapping) else value)
        for name, value in artifacts.items()
    }
    stream_info = dict(info.get("stream") or {})
    repro_checks = [
        _check(
            "RP-01",
            "Config SHA-256 recorded",
            _is_sha256(info.get("config_sha256")),
            evidence={"config_sha256": info.get("config_sha256")},
        ),
        _check(
            "RP-02",
            "Model artifact SHA-256s recorded",
            bool(artifact_hashes)
            and all(_is_sha256(h) for h in artifact_hashes.values()),
            evidence={
                "model_version": model.get("version"),
                "n_artifacts": len(artifact_hashes),
                "artifacts": artifact_hashes,
            },
        ),
        _check(
            "RP-03",
            "Stream source recorded",
            bool(stream_info),
            severity="minor",
            evidence={"stream": stream_info},
        ),
    ]

    sections = [
        {"title": "Throughput", "checks": throughput_checks, "data": throughput_data},
        {"title": "Latency", "checks": latency_checks, "data": {"stages": _round(stages)}},
        {"title": "Timeline", "checks": timeline_checks, "data": timeline_data},
        {"title": "Lifecycle", "checks": lifecycle_checks, "data": lifecycle_data},
        {"title": "Reproducibility", "checks": repro_checks, "data": {}},
    ]
    for index, section in enumerate(sections, start=1):
        section["index"] = index
        section["verdict"] = _section_verdict(section["checks"])
    all_checks = [c for section in sections for c in section["checks"]]

    return {
        "format_version": FORMAT_VERSION,
        "title": title,
        "generated_at": generated_at if generated_at is not None else _now_utc(),
        "overall": _section_verdict(all_checks),
        "run": _round(
            {
                "n_batches": n_batches,
                "n_samples": n_samples,
                "n_alerts": summary.get("n_alerts", 0),
                "n_drift_events": summary.get("n_drift_events", 0),
                "n_quarantined": n_quarantined,
                "throughput_samples_per_sec": throughput,
                "total_time_s": summary.get("total_time_s", 0.0),
            }
        ),
        "sections": sections,
    }


# ---------------------------------------------------------------------------
# markdown rendering
# ---------------------------------------------------------------------------


def _evidence_line(evidence: Mapping[str, Any]) -> str:
    return json.dumps(evidence, sort_keys=True, default=str)


def render_markdown(report: Mapping[str, Any]) -> str:
    """Render ``report.json`` to the human-readable ``report.md``."""
    run = report.get("run", {})
    lines = [
        f"# {report.get('title', 'Serving run report')}",
        "",
        f"- Generated at: `{report.get('generated_at', 'unknown')}`",
        f"- Overall: **{report.get('overall', 'NOT_MET')}**",
        f"- Batches: {run.get('n_batches', 0)} · rows: {run.get('n_samples', 0)}"
        f" · alerts: {run.get('n_alerts', 0)}"
        f" · quarantined: {run.get('n_quarantined', 0)}",
        f"- Throughput: {run.get('throughput_samples_per_sec', 0.0):,.0f}"
        f" rows/s over {run.get('total_time_s', 0.0):.3f} s",
        "",
        "## Sections",
    ]
    for section in report.get("sections", []):
        lines.append("")
        lines.append(
            f"### {section.get('index', '?')}. {section.get('title', '?')}"
            f" — **{section.get('verdict', 'NOT_MET')}**"
        )
        lines.append("")
        for check in section.get("checks", []):
            lines.append(
                f"- `{check['id']}` **{check['verdict']}**"
                f" ({check['severity']}) — {check['title']}"
            )
            if check.get("evidence"):
                lines.append(f"  - evidence: `{_evidence_line(check['evidence'])}`")
        data = section.get("data", {})
        stages = data.get("stages")
        if stages:
            lines.append("")
            lines.append("| stage | spans | p50 (ms) | p95 (ms) | p99 (ms) |")
            lines.append("| --- | ---: | ---: | ---: | ---: |")
            for stage, row in stages.items():
                lines.append(
                    f"| {stage} | {row['count']} |"
                    f" {1e3 * row['p50_s']:.3f} |"
                    f" {1e3 * row['p95_s']:.3f} |"
                    f" {1e3 * row['p99_s']:.3f} |"
                )
        entries = data.get("entries")
        if entries is not None:
            lines.append("")
            if not entries:
                lines.append("- (no timeline events)")
            for entry in entries:
                detail = ", ".join(
                    f"{k}={entry[k]}"
                    for k in entry
                    if k not in ("type", "n") and entry[k] is not None
                )
                prefix = f"- `{entry['type']}`"
                if entry.get("n", 1) > 1:
                    prefix += f" ×{entry['n']}"
                lines.append(f"{prefix} — {detail}" if detail else prefix)
            if data.get("truncated"):
                lines.append(f"- … {data['truncated']} more entries truncated")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# run-directory round trip
# ---------------------------------------------------------------------------


def write_report_files(
    run_dir: str | Path, report: Mapping[str, Any]
) -> tuple[Path, Path]:
    """Write ``report.json`` + ``report.md`` into ``run_dir``; return paths."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    json_path = run_dir / "report.json"
    md_path = run_dir / "report.md"
    json_path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    md_path.write_text(render_markdown(report), encoding="utf-8")
    return json_path, md_path


def load_run_dir(run_dir: str | Path) -> tuple[dict, list[dict]]:
    """Load ``(run_summary, events)`` back from a ``serve --run-dir`` output.

    ``run_summary.json`` is required; ``events.jsonl`` is optional (a run
    with no sink events still reports).  Both files are read with
    :func:`~repro.serve.sinks.read_events`, which drops a torn trailing
    record with a warning.
    """
    run_dir = Path(run_dir)
    summary_path = run_dir / "run_summary.json"
    if not summary_path.is_file():
        raise FileNotFoundError(
            f"{summary_path} not found; was this run started with --run-dir?"
        )
    run_summary = json.loads(summary_path.read_text(encoding="utf-8"))
    events_path = run_dir / "events.jsonl"
    events = read_events(events_path) if events_path.is_file() else []
    return run_summary, events


def render_run_report(
    run_dir: str | Path, *, generated_at: str | None = None
) -> dict:
    """Re-render a run directory's report and rewrite its files.

    Backs ``repro serve report <run-dir>``: everything needed is read from
    ``run_summary.json`` + ``events.jsonl``, so a report can be (re)built
    long after the serving process exited.
    """
    run_summary, events = load_run_dir(run_dir)
    report = build_report(
        run_summary.get("service_report") or {},
        metrics=run_summary.get("metrics"),
        events=events,
        run_info=run_summary,
        generated_at=generated_at,
    )
    write_report_files(run_dir, report)
    return report
