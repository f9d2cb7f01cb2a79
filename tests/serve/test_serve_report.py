"""Auditable run reports: golden output, chaos timelines, CLI round trip.

The contracts under test (see :mod:`repro.serve.telemetry.report`):

* :func:`build_report` is pure — the committed golden fixtures in
  ``tests/serve/data`` lock byte-for-byte ``report.json`` *and*
  ``report.md`` output for fixed inputs;
* a chaos run's degradations (quarantined rows, disabled sinks) all
  surface on the report timeline with the matching checks
  flipped to ``NOT_MET``;
* ``repro serve --run-dir`` writes a run directory that ``repro serve
  report`` round-trips, with the config hash and model artifact hashes
  verifiable from ``run_summary.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.streaming import FlowStream
from repro.novelty import IsolationForest
from repro.serve.cli import main
from repro.serve.faults import FaultInjector
from repro.serve.service import DetectionService
from repro.serve.sinks import ListSink
from repro.serve.telemetry import (
    MetricsRegistry,
    build_report,
    build_run_summary,
    config_sha256,
    load_run_dir,
    render_markdown,
    render_run_report,
    write_report_files,
)

pytestmark = pytest.mark.serve

DATA_DIR = Path(__file__).parent / "data"
GENERATED_AT = "2026-08-07T00:00:00+00:00"


def golden_inputs() -> dict:
    """Fixed, fully deterministic inputs for the golden-report fixtures.

    ``tests/serve/data/golden_report.{json,md}`` are regenerated with::

        PYTHONPATH=src python - <<'PY'
        from tests.serve.test_serve_report import write_golden_fixtures
        write_golden_fixtures()
        PY
    """
    registry = MetricsRegistry()
    batches = registry.counter("pipeline.batches", unit="batches")
    rows = registry.counter("pipeline.rows", unit="rows")
    latency = registry.histogram("pipeline.batch_seconds", unit="seconds")
    score = registry.histogram("stage.score.seconds", unit="seconds")
    for value in (0.001, 0.002, 0.004, 0.008):
        batches.inc()
        rows.inc(256)
        latency.observe(value)
        score.observe(value * 0.75)
    registry.counter("stage.score.rows", unit="rows").inc(1024)
    registry.counter("pipeline.quarantined_rows", unit="rows").inc(6)
    metrics = registry.snapshot()

    summary = {
        "n_batches": 4,
        "n_samples": 1024,
        "n_alerts": 37,
        "n_drift_events": 1,
        "n_quarantined": 6,
        "n_disabled_sinks": 0,
        "throughput_samples_per_sec": 50000.0,
        "total_time_s": 0.02048,
        "batch_latency_p50_s": 0.002,
        "batch_latency_p95_s": 0.008,
        "batch_latency_p99_s": 0.008,
    }
    events = [
        {"type": "quarantined_rows", "batch_index": 0,
         "row_indices": [1, 2, 3], "reason": "non-finite feature values"},
        {"type": "alert", "batch_index": 0, "sample_index": 7},
        {"type": "alert", "batch_index": 0, "sample_index": 9},
        {"type": "alert", "batch_index": 0, "sample_index": 11},
        {"type": "drift", "batch_index": 1},
        {"type": "lifecycle", "action": "refit", "epoch": 1,
         "swapped": True, "published_version": 2},
        {"type": "metrics", "batch_index": 3, "snapshot": {}},
    ]
    run_info = build_run_summary(
        {"detector": "iforest", "seed": 0, "batch_size": 256},
        stream={"source": "synthetic", "dataset": "wustl_iiot", "seed": 0},
        model={
            "source": "registry",
            "name": "iforest-wustl_iiot",
            "version": 2,
            "artifacts": {"arrays.npz": {"sha256": "ab" * 32}},
        },
        service_report=summary,
        metrics=metrics,
        generated_at=GENERATED_AT,
    )
    return {
        "summary": summary,
        "metrics": metrics,
        "events": events,
        "run_info": run_info,
    }


def build_golden_report() -> dict:
    inputs = golden_inputs()
    return build_report(
        inputs["summary"],
        metrics=inputs["metrics"],
        events=inputs["events"],
        run_info=inputs["run_info"],
        generated_at=GENERATED_AT,
    )


def write_golden_fixtures() -> None:
    """Regenerate the committed golden fixtures (see :func:`golden_inputs`)."""
    report = build_golden_report()
    (DATA_DIR / "golden_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (DATA_DIR / "golden_report.md").write_text(
        render_markdown(report), encoding="utf-8"
    )


class TestGoldenReport:
    def test_report_json_matches_committed_fixture(self):
        expected = json.loads(
            (DATA_DIR / "golden_report.json").read_text(encoding="utf-8")
        )
        assert build_golden_report() == expected

    def test_report_md_matches_committed_fixture(self):
        expected = (DATA_DIR / "golden_report.md").read_text(encoding="utf-8")
        assert render_markdown(build_golden_report()) == expected

    def test_golden_overall_is_met(self):
        report = build_golden_report()
        assert report["overall"] == "MET"
        assert [s["verdict"] for s in report["sections"]] == ["MET"] * 5
        json.dumps(report, allow_nan=False)


class TestBuildReport:
    def test_minor_failure_rolls_up_to_partially_met(self):
        inputs = golden_inputs()
        # Quarantine 30% of traffic: TL-03 is a *minor* check.
        summary = dict(inputs["summary"], n_quarantined=500)
        report = build_report(
            summary,
            metrics=inputs["metrics"],
            events=inputs["events"],
            run_info=inputs["run_info"],
            generated_at=GENERATED_AT,
        )
        timeline = next(
            s for s in report["sections"] if s["title"] == "Timeline"
        )
        assert timeline["verdict"] == "PARTIALLY_MET"
        assert report["overall"] == "PARTIALLY_MET"

    def test_major_failure_rolls_up_to_not_met(self):
        inputs = golden_inputs()
        events = inputs["events"] + [
            {"type": "sink_disabled", "sink": "JsonlSink", "n_errors": 3}
        ]
        report = build_report(
            inputs["summary"],
            metrics=inputs["metrics"],
            events=events,
            run_info=inputs["run_info"],
            generated_at=GENERATED_AT,
        )
        assert report["overall"] == "NOT_MET"
        timeline = next(
            s for s in report["sections"] if s["title"] == "Timeline"
        )
        tl01 = next(c for c in timeline["checks"] if c["id"] == "TL-01")
        assert tl01["verdict"] == "NOT_MET"

    def test_consecutive_alerts_collapse_on_timeline(self):
        inputs = golden_inputs()
        report = build_golden_report()
        timeline = next(
            s for s in report["sections"] if s["title"] == "Timeline"
        )
        alert_entries = [
            e for e in timeline["data"]["entries"] if e["type"] == "alert"
        ]
        assert len(alert_entries) == 1
        assert alert_entries[0]["n"] == 3
        # Records of other types (the ``metrics`` snapshots older runs
        # wrote) never appear.
        assert all(
            e["type"] != "metrics" for e in timeline["data"]["entries"]
        )
        counts = timeline["data"]["event_counts"]
        assert counts["alert"] == 3 and "metrics" not in counts

    def test_timeline_truncation_is_reported(self):
        inputs = golden_inputs()
        events = [
            {"type": "drift", "batch_index": i} for i in range(30)
        ]
        report = build_report(
            inputs["summary"],
            events=events,
            run_info=inputs["run_info"],
            max_timeline_events=10,
            generated_at=GENERATED_AT,
        )
        timeline = next(
            s for s in report["sections"] if s["title"] == "Timeline"
        )
        assert len(timeline["data"]["entries"]) == 10
        assert timeline["data"]["truncated"] == 20
        assert "20 more entries truncated" in render_markdown(report)

    def test_missing_repro_hashes_fail_rp_checks(self):
        inputs = golden_inputs()
        run_info = dict(inputs["run_info"], model=None)
        run_info["config_sha256"] = "not-a-hash"
        report = build_report(
            inputs["summary"], run_info=run_info, generated_at=GENERATED_AT
        )
        repro = next(
            s for s in report["sections"] if s["title"] == "Reproducibility"
        )
        verdicts = {c["id"]: c["verdict"] for c in repro["checks"]}
        assert verdicts["RP-01"] == "NOT_MET"
        assert verdicts["RP-02"] == "NOT_MET"

    def test_config_sha256_is_order_insensitive(self):
        assert config_sha256({"a": 1, "b": 2}) == config_sha256({"b": 2, "a": 1})
        assert config_sha256({"a": 1}) != config_sha256({"a": 2})


class TestRunDirRoundTrip:
    def test_load_run_dir_requires_summary(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="run_summary.json"):
            load_run_dir(tmp_path)

    def test_render_run_report_round_trips(self, tmp_path):
        inputs = golden_inputs()
        (tmp_path / "run_summary.json").write_text(
            json.dumps(inputs["run_info"], indent=2, sort_keys=True),
            encoding="utf-8",
        )
        with open(tmp_path / "events.jsonl", "w", encoding="utf-8") as handle:
            for event in inputs["events"]:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        report = render_run_report(tmp_path, generated_at=GENERATED_AT)
        assert report == build_golden_report()
        assert json.loads(
            (tmp_path / "report.json").read_text(encoding="utf-8")
        ) == report
        assert (tmp_path / "report.md").read_text(
            encoding="utf-8"
        ) == render_markdown(report)

    def test_write_report_files_creates_dir(self, tmp_path):
        report = build_golden_report()
        json_path, md_path = write_report_files(tmp_path / "nested", report)
        assert json_path.is_file() and md_path.is_file()


class TestChaosRunReport:
    def test_chaos_degradations_surface_on_the_timeline(self, tiny_dataset):
        normal = tiny_dataset.normal_data()
        detector = IsolationForest(n_estimators=10, random_state=0).fit(normal)
        injector = FaultInjector.from_spec(
            "sink_raise@every=1;nan_rows@rate=0.05", seed=7
        )
        stream = FlowStream(
            tiny_dataset, batch_size=64, drift_strength=2.0, random_state=0
        )
        batches = [np.asarray(X, dtype=np.float64) for X, _ in stream]
        healthy = ListSink()
        service = DetectionService(
            detector,
            threshold="auto",
            sinks=injector.wrap_sinks([ListSink()]) + [healthy],
        )
        list(service.process(injector.corrupt_stream(batches)))
        service_report = service.report()

        events = [event.to_dict() for event in healthy.events]
        report = build_report(
            service_report.to_dict(),
            metrics=service.metrics_snapshot(),
            events=events,
            generated_at=GENERATED_AT,
        )

        timeline = next(
            s for s in report["sections"] if s["title"] == "Timeline"
        )
        kinds = {e["type"] for e in timeline["data"]["entries"]}
        assert {"quarantined_rows", "sink_disabled"} <= kinds
        counts = timeline["data"]["event_counts"]
        assert counts["sink_disabled"] >= 1
        assert counts["quarantined_rows"] >= 1
        # A disabled sink is a major timeline failure: the chaos is audited,
        # not papered over.
        tl01 = next(c for c in timeline["checks"] if c["id"] == "TL-01")
        assert tl01["verdict"] == "NOT_MET"
        assert timeline["verdict"] == "NOT_MET"
        assert report["overall"] == "NOT_MET"
        # The quarantine total agrees with the service.
        tl03 = next(c for c in timeline["checks"] if c["id"] == "TL-03")
        assert tl03["evidence"]["n_quarantined"] == service_report.n_quarantined
        json.dumps(report, allow_nan=False)
        render_markdown(report)


class TestCliRoundTrip:
    def test_serve_run_dir_then_serve_report(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        trace = tmp_path / "trace.jsonl"
        rc = main(
            [
                "serve",
                "--dataset", "wustl_iiot",
                "--scale", "0.001",
                "--batch-size", "64",
                "--detector", "iforest",
                "--trace-file", str(trace),
                "--run-dir", str(run_dir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "spans traced to" in out
        assert "run report:" in out

        # Trace file: one JSON object per span, monotone non-negative offsets.
        spans = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert spans and all(span["seconds"] >= 0.0 for span in spans)
        assert {"quarantine_scan", "score", "threshold_update"} <= {
            span["stage"] for span in spans
        }

        # Run summary: config hash verifiable, artifact hashes present.
        summary = json.loads(
            (run_dir / "run_summary.json").read_text(encoding="utf-8")
        )
        assert summary["config_sha256"] == config_sha256(summary["config"])
        artifacts = summary["model"]["artifacts"]
        assert artifacts
        for entry in artifacts.values():
            assert len(entry["sha256"]) == 64
        assert summary["stream"]["dataset"] == "wustl_iiot"
        assert summary["metrics"]["counters"]["pipeline.batches"]["value"] > 0

        report_before = json.loads(
            (run_dir / "report.json").read_text(encoding="utf-8")
        )
        rc = main(["serve", "report", str(run_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Reproducibility: MET" in out
        report_after = json.loads(
            (run_dir / "report.json").read_text(encoding="utf-8")
        )
        assert report_after["overall"] == "MET"
        # Re-rendering changes only the generation timestamp.
        report_after["generated_at"] = report_before["generated_at"]
        assert report_after == report_before

        # `repro trace` is the latency gate on the run's spans: a budget
        # every stage meets passes, a budget on an untraced stage fails.
        assert main(["trace", str(trace), "--budget", "batch=1e9"]) == 0
        assert main(["trace", str(trace), "--budget", "no_such_stage=1"]) == 1

    def test_serve_report_on_missing_dir_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="run_summary.json"):
            main(["serve", "report", str(tmp_path / "nope")])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "report", "run", "--baseline", "x.json"],
            ["serve", "--baseline=x.json"],
        ],
        ids=["serve-report", "serve"],
    )
    def test_baseline_flag_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --baseline" in capsys.readouterr().err
