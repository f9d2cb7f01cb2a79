"""Fixture-driven rule tests: every rule has a bad twin and a clean good twin.

Each fixture under ``fixtures/`` marks the lines it expects flagged with a
trailing ``# BAD`` comment; the test asserts the rule reports *exactly* that
set of lines (ids and line numbers both), and that the good twin produces
nothing.  Fixtures are linted through the real engine
(:func:`repro.analysis.engine.lint_parsed`) under a pretend path, so scope
selection, suppression handling, and sorting all run exactly as in
``repro lint``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import LintContext, lint_parsed, parse_module
from repro.analysis.rules import RULE_CLASSES, rules_by_id

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (bad fixture, good fixture, pretend path to lint under).
CASES = {
    "RL001": ("rl001_bad.py", "rl001_good.py", "src/repro/novelty/fixture_mod.py"),
    "RL003": ("rl003_bad.py", "rl003_good.py", "src/repro/serve/fixture_store.py"),
    "RL005": ("rl005_bad.py", "rl005_good.py", "src/repro/serve/fixture_guard.py"),
    "RL009": ("rl009_bad.py", "rl009_good.py", "src/repro/serve/fixture_resources.py"),
    "RL012": ("rl012_bad.py", "rl012_good.py", "src/repro/serve/fixture_taint.py"),
}


def lint_fixture(fixture: str, pretend_path: str, rule_id: str):
    source = (FIXTURES / fixture).read_text(encoding="utf-8")
    module = parse_module(source, pretend_path)
    context = LintContext(modules=[module])
    result = lint_parsed(context, rules=rules_by_id([rule_id]))
    return source, result.findings


def bad_lines(source: str) -> set[int]:
    return {
        lineno
        for lineno, line in enumerate(source.splitlines(), start=1)
        if "# BAD" in line
    }


def test_every_registered_rule_has_fixture_twins():
    assert set(CASES) == {cls.rule_id for cls in RULE_CLASSES}


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_bad_twin_flags_exactly_the_marked_lines(rule_id):
    bad_fixture, _, pretend_path = CASES[rule_id]
    source, findings = lint_fixture(bad_fixture, pretend_path, rule_id)
    expected = bad_lines(source)
    assert expected, f"{bad_fixture} has no # BAD markers"
    assert {f.rule for f in findings} == {rule_id}
    assert {f.line for f in findings} == expected
    assert all(f.path == pretend_path for f in findings)
    assert all(f.severity in ("error", "warning") for f in findings)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_good_twin_is_clean(rule_id):
    _, good_fixture, pretend_path = CASES[rule_id]
    _, findings = lint_fixture(good_fixture, pretend_path, rule_id)
    assert findings == []


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_good_twin_is_clean_under_full_rule_set(rule_id):
    """The good twins survive every rule, not just their own."""
    _, good_fixture, pretend_path = CASES[rule_id]
    source = (FIXTURES / good_fixture).read_text(encoding="utf-8")
    module = parse_module(source, pretend_path)
    result = lint_parsed(LintContext(modules=[module]))
    assert result.findings == []


def test_inline_suppression_drops_the_finding():
    source, findings = lint_fixture(
        "rl001_bad.py", CASES["RL001"][2], "RL001"
    )
    suppressed = source.replace(
        "np.random.seed(0)  # BAD",
        "np.random.seed(0)  # reprolint: disable=RL001",
    )
    module = parse_module(suppressed, CASES["RL001"][2])
    result = lint_parsed(LintContext(modules=[module]), rules=rules_by_id(["RL001"]))
    assert len(result.findings) == len(findings) - 1


def test_rl001_allowlists_telemetry_modules():
    source = (FIXTURES / "rl001_bad.py").read_text(encoding="utf-8")
    module = parse_module(source, "src/repro/serve/telemetry/fixture_mod.py")
    result = lint_parsed(LintContext(modules=[module]), rules=rules_by_id(["RL001"]))
    assert result.findings == []


def test_serve_scoped_rules_ignore_code_outside_serve():
    source = (FIXTURES / "rl003_bad.py").read_text(encoding="utf-8")
    module = parse_module(source, "benchmarks/fixture_mod.py")
    result = lint_parsed(LintContext(modules=[module]), rules=rules_by_id(["RL003"]))
    assert result.findings == []

