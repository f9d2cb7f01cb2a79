"""Baseline line-drift edge cases the happy path never exercises.

The baseline identifies a finding by ``(rule, path, context, line_text)``,
deliberately ignoring the line number.  That buys drift tolerance but has
corners worth pinning:

* two *identical* offending lines in one function share one identity — a
  single entry grandfathers both, and fixing only one keeps the tree green
  (the survivor still matches);
* renaming the enclosing function changes ``context``, so the entry stops
  matching and the finding comes back new — moving code must re-justify it;
* ``--write-baseline`` drops an entry whose finding was genuinely fixed,
  but carries over every entry the run could not re-check — its rule was
  not selected (``--rules``) or its file was outside the scanned paths.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Baseline, BaselineEntry, LintContext, lint_parsed, parse_module
from repro.analysis.cli import main as lint_main
from repro.analysis.rules import rules_by_id

MOD_PATH = "src/repro/novelty/fixture_drift.py"

TWIN_LINES = '''\
"""Two identical offending lines in one function."""

import numpy as np


def reset_all():
    np.random.seed(0)
    np.random.seed(0)
'''


def lint(source, baseline=None):
    module = parse_module(source, MOD_PATH)
    context = LintContext(modules=[module])
    return lint_parsed(
        context, rules=rules_by_id(["RL001"]), baseline=baseline
    )


def entry_for(finding, reason="test: grandfathered"):
    return BaselineEntry(
        rule=finding.rule,
        path=finding.path,
        context=finding.context,
        line_text=finding.line_text,
        reason=reason,
    )


class TestDuplicateLineText:
    def test_one_entry_grandfathers_both_identical_lines(self):
        result = lint(TWIN_LINES)
        assert len(result.findings) == 2
        assert result.findings[0].key() == result.findings[1].key()

        baseline = Baseline([entry_for(result.findings[0])])
        again = lint(TWIN_LINES, baseline=baseline)
        assert all(f.baselined for f in again.findings)
        assert again.exit_code == 0

    def test_fixing_one_twin_keeps_the_survivor_grandfathered(self):
        result = lint(TWIN_LINES)
        baseline = Baseline([entry_for(result.findings[0])])
        one_fixed = TWIN_LINES.replace(
            "    np.random.seed(0)\n    np.random.seed(0)\n",
            "    np.random.seed(0)\n",
        )
        again = lint(one_fixed, baseline=baseline)
        assert len(again.findings) == 1
        assert again.findings[0].baselined
        assert again.exit_code == 0


class TestRenamedContext:
    def test_renaming_the_enclosing_function_unbaselines(self):
        result = lint(TWIN_LINES)
        baseline = Baseline([entry_for(result.findings[0])])
        renamed = TWIN_LINES.replace("def reset_all():", "def reseed():")
        again = lint(renamed, baseline=baseline)
        assert len(again.findings) == 2
        assert not any(f.baselined for f in again.findings)
        assert again.exit_code == 1

    def test_line_drift_without_rename_keeps_matching(self):
        result = lint(TWIN_LINES)
        baseline = Baseline([entry_for(result.findings[0])])
        shifted = TWIN_LINES.replace(
            'import numpy as np', 'import numpy as np\n\nPADDING = "moves lines"'
        )
        again = lint(shifted, baseline=baseline)
        assert all(f.baselined for f in again.findings)
        assert again.exit_code == 0


CLOCK_PATH = "src/repro/serve/fixture_clock.py"

CLOCK = '''\
"""A serve module reading the wall clock."""

import time


def stamp():
    return time.time()
'''


class TestWriteBaselineScope:
    @pytest.fixture
    def tree(self, tmp_path, monkeypatch, capsys):
        """Two RL001 findings in two packages, both baselined and documented."""
        for rel, source in ((MOD_PATH, TWIN_LINES), (CLOCK_PATH, CLOCK)):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text(source)
        monkeypatch.chdir(tmp_path)
        assert lint_main(["src", "--write-baseline"]) == 0
        path = tmp_path / ".reprolint-baseline.json"
        payload = json.loads(path.read_text())
        for item in payload["findings"]:
            item["reason"] = f"documented: {item['path']}"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        return path

    @staticmethod
    def reasons(path):
        payload = json.loads(path.read_text())
        return sorted(item["reason"] for item in payload["findings"])

    def test_rules_subset_keeps_entries_of_rules_it_did_not_run(self, tree):
        assert lint_main(["src", "--rules", "RL003", "--write-baseline"]) == 0
        assert self.reasons(tree) == [
            f"documented: {MOD_PATH}",
            f"documented: {CLOCK_PATH}",
        ]

    def test_subtree_run_keeps_entries_of_files_it_did_not_scan(self, tree):
        assert lint_main(["src/repro/serve", "--write-baseline"]) == 0
        assert self.reasons(tree) == [
            f"documented: {MOD_PATH}",
            f"documented: {CLOCK_PATH}",
        ]
        assert lint_main(["src"]) == 0

    def test_full_run_drops_the_entry_once_its_finding_is_fixed(self, tree):
        Path(MOD_PATH).write_text(
            TWIN_LINES.replace("np.random.seed(0)", "rng = np.random.default_rng(0)")
        )
        assert lint_main(["src", "--write-baseline"]) == 0
        assert self.reasons(tree) == [f"documented: {CLOCK_PATH}"]
