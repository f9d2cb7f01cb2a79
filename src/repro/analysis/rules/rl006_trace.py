"""RL006 — trace coverage: every declared pipeline stage has a trace_span.

PR 7's observability contract is that every pipeline stage runs under a
``trace_span("<stage>", ...)`` so span traces and the per-stage latency
table in run reports are complete.  This rule pins that contract with an
explicit registry: each declared stage maps to the module that owns it, and

1. when that home module is part of the scan, some scanned serve module
   must contain a ``trace_span`` call whose first argument is that literal
   stage name (missing instrumentation);
2. every ``trace_span`` literal first argument must be a declared stage
   (typo / undeclared-stage catch — keeping the registry the single source
   of truth);
3. a ``trace_span`` call whose first argument is *not* a string literal is
   flagged: stage names must be statically auditable.

Keying each stage on its home module means linting a subtree (say one file)
never produces spurious "missing stage" findings for code that was not
scanned.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import LintContext, ParsedModule
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, ScopedVisitor, in_serve_package

__all__ = ["TraceCoverageRule", "PIPELINE_STAGES"]

#: stage name -> path suffix of the module that owns the stage.
PIPELINE_STAGES: dict[str, str] = {
    "batch": "repro/serve/service.py",
    "quarantine_scan": "repro/serve/service.py",
    "score": "repro/serve/service.py",
    "threshold_update": "repro/serve/service.py",
    "drift_check": "repro/serve/service.py",
    "sink_emit": "repro/serve/service.py",
    "refit": "repro/serve/lifecycle/manager.py",
    "gate": "repro/serve/lifecycle/manager.py",
    "registry_publish": "repro/serve/lifecycle/manager.py",
    "heartbeat": "repro/serve/telemetry/statusd.py",
    "status_render": "repro/serve/telemetry/statusd.py",
    "mem_sample": "repro/serve/telemetry/profiling.py",
}


class _Visitor(ScopedVisitor):
    def __init__(self, rule: "TraceCoverageRule", module: ParsedModule) -> None:
        super().__init__()
        self.rule = rule
        self.module = module
        self.findings: list[Finding] = []
        self.literal_stages: dict[str, int] = {}

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "trace_span":
            arg = node.args[0] if node.args else None
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                stage = arg.value
                self.literal_stages.setdefault(stage, node.lineno)
                if stage not in PIPELINE_STAGES:
                    self.findings.append(
                        self.rule.finding(
                            self.module,
                            node,
                            f"trace_span stage '{stage}' is not in the "
                            "declared pipeline-stage registry "
                            "(repro.analysis.rules.rl006_trace."
                            "PIPELINE_STAGES); fix the typo or declare it",
                            context=self.qualname,
                        )
                    )
            else:
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        node,
                        "trace_span stage name must be a string literal so "
                        "coverage is statically auditable",
                        context=self.qualname,
                    )
                )
        self.generic_visit(node)


class TraceCoverageRule(Rule):
    rule_id = "RL006"
    title = "Every declared pipeline stage runs under trace_span"
    severity = "error"
    false_negatives = (
        "A span literal satisfies coverage from any scanned serve module, "
        "not necessarily the stage's home module; whether the span actually "
        "wraps the stage's work is not checked."
    )

    def finalize(self, context: LintContext) -> Iterable[Finding]:
        serve_modules = [m for m in context.modules if in_serve_package(m)]
        if not serve_modules:
            return ()
        seen_stages: set[str] = set()
        findings: list[Finding] = []
        for module in serve_modules:
            visitor = _Visitor(self, module)
            visitor.visit(module.tree)
            findings.extend(visitor.findings)
            seen_stages.update(visitor.literal_stages)
        for stage, home_suffix in PIPELINE_STAGES.items():
            home = next(
                (m for m in serve_modules if m.display_path.endswith(home_suffix)),
                None,
            )
            if home is None:
                continue  # stage's home module not part of this scan
            if stage not in seen_stages:
                findings.append(
                    self.finding(
                        home,
                        None,
                        f"declared pipeline stage '{stage}' has no "
                        "trace_span call anywhere in the scanned serve "
                        "modules; instrument it or retire the stage",
                        line=1,
                    )
                )
        return findings
