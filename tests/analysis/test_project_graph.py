"""Pass-1 semantic model: symbol table, call graph, module dependencies.

The project graph (:mod:`repro.analysis.project`) is the substrate every
cross-module rule stands on, so its resolution rules are pinned directly:
same-module calls, ``self.method()`` dispatch, import-alias resolution into
other scanned modules, and the module import edges.
"""

from __future__ import annotations

from repro.analysis import LintContext, parse_module
from repro.analysis.project import build_project, function_key

HELPER = '''\
"""Helper module."""

import time


def jitter():
    return time.time()


def stable():
    return 42.0
'''

SCORING = '''\
"""Scoring module calling across the package."""

from repro.utils.fixture_helper import jitter


class Scorer:
    def _scale(self, value):
        return value * 2.0

    def score(self, rows):
        base = jitter()
        return [self._scale(row) + base for row in rows]


def run(rows):
    scorer = Scorer()
    return scorer.score(rows)
'''

HELPER_PATH = "src/repro/utils/fixture_helper.py"
SCORING_PATH = "src/repro/serve/fixture_scoring.py"


def build():
    context = LintContext(
        modules=[
            parse_module(HELPER, HELPER_PATH),
            parse_module(SCORING, SCORING_PATH),
        ]
    )
    return build_project(context)


class TestSymbolTable:
    def test_modules_and_dotted_names(self):
        graph = build()
        assert set(graph.modules) == {HELPER_PATH, SCORING_PATH}
        assert graph.by_dotted["repro.utils.fixture_helper"] == HELPER_PATH
        assert graph.by_dotted["repro.serve.fixture_scoring"] == SCORING_PATH

    def test_functions_include_methods_with_qualnames(self):
        graph = build()
        for qualname in ("jitter", "stable"):
            assert function_key(HELPER_PATH, qualname) in graph.functions
        for qualname in ("Scorer._scale", "Scorer.score", "run"):
            assert function_key(SCORING_PATH, qualname) in graph.functions


class TestCallEdges:
    def test_self_method_call_resolves_within_class(self):
        graph = build()
        edges = graph.call_edges[function_key(SCORING_PATH, "Scorer.score")]
        assert function_key(SCORING_PATH, "Scorer._scale") in edges

    def test_import_alias_resolves_to_other_module(self):
        graph = build()
        edges = graph.call_edges[function_key(SCORING_PATH, "Scorer.score")]
        assert function_key(HELPER_PATH, "jitter") in edges

    def test_edges_carry_first_call_site_line(self):
        graph = build()
        edges = graph.call_edges[function_key(SCORING_PATH, "Scorer.score")]
        lineno = edges[function_key(HELPER_PATH, "jitter")]
        assert SCORING.splitlines()[lineno - 1].strip() == "base = jitter()"
