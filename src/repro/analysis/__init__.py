"""reprolint: AST-based machine-checks for the serving stack's contracts.

The serving layer's correctness rests on conventions — runs that replay
bit-identically from a seed, pickle-free snapshots, no swallowed exception,
released resources — that no type checker sees.  This package encodes each
convention as a small stdlib-``ast`` rule (RL001, RL003, RL005, RL009 and
RL012; see :mod:`repro.analysis.rules`) and has one lint path:
:func:`run_lint` parses the tree once, builds a whole-tree symbol table and
call graph (:mod:`repro.analysis.project`) for the cross-module rules, runs
every rule, and marks the findings a committed baseline grandfathers
(:mod:`repro.analysis.baseline`).  ``repro lint`` is the CLI and prints
compiler-style text; the tier-1 test
``tests/analysis/test_lint_src_clean.py`` is the gate that keeps ``src/``
clean.  Contracts the running code can show directly (snapshot
transients, trace stages, ``__all__``, CLI docs, the serve event schema)
are tier-1 tests instead.
"""

from __future__ import annotations

from repro.analysis.baseline import Baseline, BaselineEntry, write_baseline
from repro.analysis.engine import (
    LintContext,
    LintResult,
    ParsedModule,
    lint_parsed,
    parse_module,
    run_lint,
)
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectGraph, build_project, function_key
from repro.analysis.rules import RULE_CLASSES, Rule, default_rules, rules_by_id

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintContext",
    "LintResult",
    "ParsedModule",
    "ProjectGraph",
    "RULE_CLASSES",
    "Rule",
    "build_project",
    "default_rules",
    "function_key",
    "lint_parsed",
    "parse_module",
    "rules_by_id",
    "run_lint",
    "write_baseline",
]
