"""Trace analyzer (``repro trace``): per-stage aggregation and p95 budgets.

The golden fixture ``data/golden_trace.jsonl`` is a hand-written two-batch
trace (children listed before parents, as :class:`SpanTracer` writes them)
with exact durations, so every aggregate the analyzer reports — and both
budget exit codes the CI gate keys off — is checked against arithmetic done
by hand, not against the code under test.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.serve.cli import main as serve_cli_main
from repro.serve.sinks import read_events
from repro.serve.telemetry.traceview import (
    check_budgets,
    main,
    parse_budget,
    render_stage_table,
    stage_aggregate,
)

pytestmark = pytest.mark.serve

GOLDEN = str(Path(__file__).parent / "data" / "golden_trace.jsonl")


@pytest.fixture(scope="module")
def golden():
    return read_events(GOLDEN)


class TestAggregation:
    def test_exact_per_stage_aggregates(self, golden):
        aggregate = stage_aggregate(golden)
        score = aggregate["score"]
        assert score["count"] == 2
        assert score["rows"] == 128
        assert score["total"] == pytest.approx(0.05)
        assert score["mean"] == pytest.approx(0.025)
        # Nearest-rank on two samples: p50 is the first, p95/p99 the second.
        assert score["p50"] == pytest.approx(0.02)
        assert score["p95"] == pytest.approx(0.03)
        assert score["max"] == pytest.approx(0.03)

    def test_stage_table_lists_every_stage(self, golden):
        table = render_stage_table(stage_aggregate(golden))
        assert "p95_ms" in table
        for stage in ("batch", "quarantine_scan", "score", "threshold_update",
                      "sink_emit"):
            assert stage in table


class TestBudgets:
    def test_parse_budget(self):
        assert parse_budget("score=50") == ("score", 50.0)
        assert parse_budget(" score =12.5") == ("score", 12.5)
        for torn in ("score", "=50", "score=abc"):
            with pytest.raises(ValueError):
                parse_budget(torn)

    def test_check_budgets_verdicts(self, golden):
        aggregate = stage_aggregate(golden)
        verdicts = check_budgets(aggregate, {"score": 50.0, "absent_stage": 1.0})
        by_stage = {v["stage"]: v for v in verdicts}
        assert by_stage["score"]["status"] == "MET"
        assert by_stage["score"]["observed_ms"] == pytest.approx(30.0)
        # A budget on a stage that never ran is a misconfigured gate: loud.
        assert by_stage["absent_stage"]["status"] == "NOT_MET"
        assert by_stage["absent_stage"]["observed_ms"] is None


class TestCli:
    def test_budget_met_exits_zero(self, capsys):
        assert main([GOLDEN, "--budget", "score=50"]) == 0
        out = capsys.readouterr().out
        assert "spans: 10 from 1 file(s)" in out
        assert "budget score p95 <= 50 ms: observed 30.000 ms -> MET" in out
        assert "p95_ms" in out and "critical" not in out

    def test_budget_violation_exits_one(self, capsys):
        assert main([GOLDEN, "--budget", "score=25"]) == 1
        assert "NOT_MET" in capsys.readouterr().out

    def test_unknown_stage_budget_exits_one(self, capsys):
        assert main([GOLDEN, "--budget", "warp_drive=1"]) == 1
        assert "observed absent" in capsys.readouterr().out

    def test_torn_budget_spec_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main([GOLDEN, "--budget", "score"])

    def test_unreadable_file_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main([str(tmp_path / "missing.jsonl")])

    def test_mid_file_corruption_is_a_usage_error(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"stage": "a"}\n{"stage": \n{"stage": "b"}\n')
        with pytest.raises(SystemExit) as excinfo:
            main([str(trace)])
        message = excinfo.value.code
        assert isinstance(message, str)  # printed as one line, no traceback
        assert "\n" not in message
        assert f"{trace}:2:" in message

    def test_empty_trace_passes_without_budgets_fails_with(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main([str(empty)]) == 0
        assert main([str(empty), "--budget", "score=1"]) == 1

    def test_multiple_files_merge(self, capsys):
        assert main([GOLDEN, GOLDEN]) == 0
        assert "spans: 20 from 2 file(s)" in capsys.readouterr().out

    def test_mounted_under_the_serve_cli(self, capsys):
        assert serve_cli_main(["trace", GOLDEN, "--budget", "score=50"]) == 0
        assert "MET" in capsys.readouterr().out
        assert serve_cli_main(["trace", GOLDEN, "--budget", "score=25"]) == 1
