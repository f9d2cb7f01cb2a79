"""RL001 — determinism: no unseeded global RNG, no wall-clock in repro code.

The serving stack's headline contract is that every run and every
experiment replays bit-identically from one integer seed.
One ``np.random.shuffle`` against the global state, or one ``time.time()``
feeding a score/threshold, silently breaks that.  This rule flags, anywhere
under the ``repro`` package:

- calls through NumPy's *global* RNG state (``np.random.seed/rand/shuffle``
  and friends) — seeded generators from ``np.random.default_rng(seed)`` /
  ``check_random_state`` are the sanctioned path and are not flagged;
- ``np.random.default_rng()`` / ``np.random.RandomState()`` with no
  arguments (an unseeded generator);
- stdlib ``random`` module-level calls (``random.random``, ``random.seed``,
  ``from random import shuffle`` …);
- wall-clock reads: ``time.time``/``time.time_ns``, ``datetime.now``/
  ``utcnow``/``today``, ``date.today``.  Monotonic timers
  (``perf_counter``/``monotonic``) are measurement, not decision input, and
  stay legal — the heartbeat watchdog behind ``serve --status-port``
  (:class:`repro.serve.telemetry.statusd.HeartbeatWatchdog`) is the
  canonical sanctioned use: ``time.monotonic`` measures seconds-since-beat
  for ``/health`` liveness, never feeds a score or threshold.

Allowlisted modules: ``repro/serve/telemetry/`` (timestamps, spans and the
heartbeat clock are the product there) and ``repro/utils/timing.py`` (the
timing helper itself).  A deliberate exception elsewhere goes behind an
inline ``# reprolint: disable=RL001``, with its reason in a comment directly
above the line.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import LintContext, ParsedModule
from repro.analysis.findings import Finding
from repro.analysis.rules.base import (
    Rule,
    ScopedVisitor,
    dotted_name,
    has_consecutive_parts,
    in_repro_package,
)

__all__ = ["DeterminismRule", "determinism_allowlisted", "iter_determinism_sites"]

#: numpy.random module-level functions that hit the shared global state.
_NP_GLOBAL_FNS = frozenset(
    {
        "seed", "random", "rand", "randn", "randint", "random_sample",
        "ranf", "sample", "random_integers", "choice", "shuffle",
        "permutation", "bytes", "uniform", "normal", "standard_normal",
        "beta", "binomial", "exponential", "gamma", "poisson", "laplace",
        "lognormal", "multinomial", "multivariate_normal", "get_state",
        "set_state",
    }
)
#: stdlib random module-level functions (all share one hidden Random()).
_STDLIB_RANDOM_FNS = frozenset(
    {
        "random", "seed", "randint", "randrange", "choice", "choices",
        "shuffle", "sample", "uniform", "gauss", "normalvariate",
        "betavariate", "expovariate", "getrandbits", "triangular",
        "vonmisesvariate", "paretovariate", "weibullvariate",
    }
)
#: Canonical dotted names that read the wall clock.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)
#: Modules whose import aliases we track for canonicalisation.
_TRACKED_ROOTS = ("numpy", "random", "time", "datetime")


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> canonical dotted prefix, for the modules we care about.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy import random
    as nr`` maps ``nr -> numpy.random``; ``from datetime import datetime``
    maps ``datetime -> datetime.datetime``; ``from time import time`` maps
    ``time -> time.time``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _TRACKED_ROOTS:
                    aliases[alias.asname or root] = (
                        alias.name if alias.asname else root
                    )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            root = node.module.split(".")[0]
            if root in _TRACKED_ROOTS:
                for alias in node.names:
                    if alias.name != "*":
                        aliases[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )
    return aliases


class _Visitor(ScopedVisitor):
    """Collects every nondeterministic-primitive call site in one module.

    Sites are ``(node, qualname, canonical_name, message)`` tuples; RL001
    turns them into findings directly, while RL012 uses them as taint seeds
    for call-graph propagation.
    """

    def __init__(self, module: ParsedModule) -> None:
        super().__init__()
        self.module = module
        self.aliases = _collect_aliases(module.tree)
        self.sites: list[tuple[ast.Call, str, str, str]] = []

    def _canonical(self, node: ast.expr) -> str | None:
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head not in self.aliases:
            return None
        canonical = self.aliases[head]
        return f"{canonical}.{rest}" if rest else canonical

    def visit_Call(self, node: ast.Call) -> None:
        name = self._canonical(node.func)
        if name is not None:
            self._check_call(node, name)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, name: str) -> None:
        message: str | None = None
        if name in ("numpy.random.default_rng", "numpy.random.RandomState"):
            if not node.args and not node.keywords:
                short = name.rsplit(".", 1)[-1]
                message = (
                    f"unseeded `{short}()` — pass an explicit seed or route "
                    "through `repro.utils.random.check_random_state`"
                )
        elif name.startswith("numpy.random.") and name.rsplit(".", 1)[-1] in _NP_GLOBAL_FNS:
            message = (
                f"`{name}` uses NumPy's global RNG state; use a seeded "
                "`Generator` (check_random_state) instead"
            )
        elif name.startswith("random.") and name.rsplit(".", 1)[-1] in _STDLIB_RANDOM_FNS:
            message = (
                f"`{name}` uses the stdlib global RNG; use a seeded "
                "`numpy.random.Generator` instead"
            )
        elif name in _WALL_CLOCK:
            message = (
                f"wall-clock read `{name}` in repro code; decision paths "
                "must be replayable (monotonic timers are fine for timing)"
            )
        if message is not None:
            self.sites.append((node, self.qualname, name, message))


def iter_determinism_sites(
    module: ParsedModule,
) -> list[tuple[ast.Call, str, str, str]]:
    """Every RL001-primitive call site in ``module``.

    Returns ``(call_node, enclosing_qualname, canonical_name, message)``
    tuples regardless of allowlisting — callers apply their own scoping.
    """
    visitor = _Visitor(module)
    visitor.visit(module.tree)
    return visitor.sites


def determinism_allowlisted(module: ParsedModule) -> bool:
    """True for modules where wall-clock/RNG primitives are sanctioned."""
    return has_consecutive_parts(module, "serve", "telemetry") or (
        module.display_path.endswith("utils/timing.py")
    )


class DeterminismRule(Rule):
    rule_id = "RL001"
    title = "No unseeded global RNG or wall-clock reads in repro code"
    severity = "error"
    false_negatives = (
        "Only direct calls through tracked import aliases are seen; an RNG "
        "module smuggled through a variable or a wall-clock read behind a "
        "helper function is not flagged."
    )

    def check_module(
        self, module: ParsedModule, context: LintContext
    ) -> Iterable[Finding]:
        if not in_repro_package(module) or determinism_allowlisted(module):
            return ()
        return [
            self.finding(module, node, message, context=qualname)
            for node, qualname, _name, message in iter_determinism_sites(module)
        ]
