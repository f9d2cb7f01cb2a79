"""Cross-module behaviour of the semantic taint rule (RL012).

The fixture twins pin each rule's single-module shape; these tests pin what
only a multi-module context can show: taint crossing an import boundary,
and the seed exclusions (inline suppression, baseline) that keep grandfathered
nondeterminism from cascading.
"""

from __future__ import annotations

from repro.analysis import Baseline, BaselineEntry, LintContext, lint_parsed, parse_module
from repro.analysis.rules import rules_by_id

HELPER_PATH = "src/repro/utils/fixture_helper.py"
SCORING_PATH = "src/repro/serve/fixture_scoring.py"

HELPER = '''\
"""Helper with a buried wall-clock read."""

import time


def jitter():
    return time.time() % 1.0
'''

SCORING = '''\
"""Serve-side caller two modules from the nondeterminism."""

from repro.utils.fixture_helper import jitter


def score_batch(rows):
    base = jitter()
    return [row + base for row in rows]
'''


def run_rules(modules, rule_ids, baseline=None):
    context = LintContext(modules=list(modules))
    result = lint_parsed(
        context, rules=rules_by_id(rule_ids), baseline=baseline
    )
    return result.findings


class TestRL012CrossModule:
    def test_taint_crosses_the_import_boundary(self):
        findings = run_rules(
            [parse_module(HELPER, HELPER_PATH), parse_module(SCORING, SCORING_PATH)],
            ["RL012"],
        )
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "RL012"
        assert finding.path == SCORING_PATH
        assert finding.context == "score_batch"
        assert "time.time" in finding.message
        assert f"{HELPER_PATH}:7" in finding.message
        assert SCORING.splitlines()[finding.line - 1].strip() == "base = jitter()"

    def test_suppressed_seed_does_not_cascade(self):
        silenced = HELPER.replace(
            "return time.time() % 1.0",
            "return time.time() % 1.0  # reprolint: disable=RL001",
        )
        findings = run_rules(
            [parse_module(silenced, HELPER_PATH), parse_module(SCORING, SCORING_PATH)],
            ["RL012"],
        )
        assert findings == []

    def test_baselined_seed_does_not_cascade(self):
        baseline = Baseline(
            [
                BaselineEntry(
                    rule="RL001",
                    path=HELPER_PATH,
                    context="jitter",
                    line_text="return time.time() % 1.0",
                    reason="fixture: deliberately grandfathered",
                )
            ]
        )
        findings = run_rules(
            [parse_module(HELPER, HELPER_PATH), parse_module(SCORING, SCORING_PATH)],
            ["RL012"],
            baseline=baseline,
        )
        assert findings == []

    def test_telemetry_callers_are_allowlisted(self):
        telemetry = SCORING.replace("fixture_scoring", "fixture_probe")
        findings = run_rules(
            [
                parse_module(HELPER, HELPER_PATH),
                parse_module(telemetry, "src/repro/serve/telemetry/fixture_probe.py"),
            ],
            ["RL012"],
        )
        assert findings == []

