"""RL012 — cross-module determinism taint: serve paths reaching RL001 sites.

RL001 flags a nondeterministic primitive *where it is called*.  That misses
the dangerous pattern: a helper in ``repro/utils`` quietly calls
``time.time()``, and a scoring path in ``repro/serve`` calls the helper —
no single module looks wrong, but the serving contract (a run replays
bit-identically from its seed) is broken two modules away.  Using the
pass-1 call graph (:mod:`repro.analysis.project`), this rule:

1. collects **taint seeds** — every RL001 primitive site in a
   non-allowlisted ``repro`` module, *excluding* sites silenced by an
   inline ``# reprolint: disable`` (a deliberate, documented exception must
   not cascade new findings);
2. propagates taint backwards over call edges to a fixpoint, carrying the
   seed primitive and location as the witness;
3. flags every function in a ``repro/serve`` module (telemetry excluded,
   matching RL001's allowlist) that has a *direct call edge* to a tainted
   callee, anchored at the call site — the serve-side entry point of the
   nondeterministic chain.  Functions containing a seed themselves are
   RL001's findings, not repeated here.

Documented false negatives: everything the call graph cannot resolve
(calls through variables, containers, ``getattr``, dependency injection)
breaks the chain; constructors are not edges, so taint in ``__init__`` does
not propagate to callers of the class.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.engine import LintContext
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, in_repro_package, in_serve_package
from repro.analysis.rules.rl001_determinism import (
    determinism_allowlisted,
    iter_determinism_sites,
)

__all__ = ["DeterminismTaintRule"]


def _function_key_for(project, display: str, qualname: str) -> str | None:
    """Map a (possibly nested) qualname onto a recorded project function."""
    from repro.analysis.project import function_key

    parts = qualname.split(".")
    while parts:
        key = function_key(display, ".".join(parts))
        if key in project.functions:
            return key
        parts.pop()
    return None


class DeterminismTaintRule(Rule):
    rule_id = "RL012"
    title = "Serve paths must not transitively reach nondeterministic calls"
    severity = "error"
    false_negatives = (
        "Unresolvable calls (variables, containers, getattr, injected "
        "callables) break the taint chain, and constructor calls are not "
        "call-graph edges."
    )

    def finalize(self, context: LintContext) -> Iterable[Finding]:
        project = context.project
        if project is None:
            from repro.analysis.project import build_project

            project = build_project(context)

        # 1. Taint seeds, minus inline-suppressed RL001 sites.
        seeds: dict[str, tuple[str, str, int]] = {}
        for module in context.modules:
            if not in_repro_package(module) or determinism_allowlisted(module):
                continue
            for node, qualname, name, _message in iter_determinism_sites(module):
                if module.is_suppressed(node.lineno, "RL001"):
                    continue
                key = _function_key_for(project, module.display_path, qualname)
                if key is not None:
                    seeds.setdefault(
                        key, (name, module.display_path, node.lineno)
                    )
        if not seeds:
            return ()

        # 2. Fixpoint propagation backwards over call edges.
        tainted: dict[str, tuple[str, str, int]] = dict(seeds)
        changed = True
        while changed:
            changed = False
            for caller, edges in project.call_edges.items():
                if caller in tainted:
                    continue
                for callee in edges:
                    if callee in tainted:
                        tainted[caller] = tainted[callee]
                        changed = True
                        break

        # 3. Flag serve functions with a direct edge into the tainted set.
        modules_by_display = {m.display_path: m for m in context.modules}
        findings: list[Finding] = []
        for caller, edges in sorted(project.call_edges.items()):
            display, _, qualname = caller.partition("::")
            module = modules_by_display.get(display)
            if module is None or not in_serve_package(module):
                continue
            if determinism_allowlisted(module):
                continue
            if caller in seeds:
                continue  # RL001 already owns the direct finding
            for callee, lineno in sorted(edges.items()):
                if callee not in tainted:
                    continue
                primitive, seed_path, seed_line = tainted[callee]
                callee_display, _, callee_qualname = callee.partition("::")
                findings.append(
                    self.finding(
                        module,
                        None,
                        f"`{qualname}` calls `{callee_qualname}` "
                        f"({callee_display}), which transitively reaches "
                        f"nondeterministic `{primitive}` at "
                        f"{seed_path}:{seed_line}; seed it explicitly or "
                        "suppress the seed inline with a reason",
                        context=qualname,
                        line=lineno,
                    )
                )
        return findings
