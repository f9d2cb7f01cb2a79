"""Static-analysis benchmark: what a full reprolint pass costs, and what the
incremental cache gives back.

``repro lint`` runs in the tier-1 gate and in the pre-commit recipe, so its
wall-clock is developer-facing latency: a linter that takes seconds per
commit gets skipped, and a cache that silently stops hitting re-inflicts the
cold cost on every run.  This benchmark pins both under the ``"analysis"``
key of ``BENCH_inference.json`` and ``check_bench_trend.py`` fails the build
when any entry regresses:

* ``lint_full[cold]`` — the full two-pass lint (parse, symbol table, call
  graph, all eleven rules) over the real ``src/repro`` tree with no cache,
  in files per second;
* ``lint_full[warm_cache]`` — the same tree against a fully warm
  :class:`~repro.analysis.cache.LintCache` (content hashes unchanged, so
  per-module work is reused and only the cross-module ``finalize`` passes
  re-run); ``speedup_vs_cold`` on this entry is the cache's whole value
  proposition — the acceptance bound is >= 5x;
* ``parse[tree]`` — bare ``ast`` parsing of every module, in files per
  second (the floor any lint run pays before rules see a node);
* ``project_graph[build]`` — pass-1 :func:`~repro.analysis.build_project`
  (symbol table + import graph + call graph) over the parsed tree, in
  modules per second (paid on every cold run and every ``finalize`` pass).

Usage::

    PYTHONPATH=src python benchmarks/run_analysis_bench.py \
        [--tree src/repro] [--n-repeats 3] [--output BENCH_inference.json]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro._version import __version__
from repro.analysis import LintContext, build_project, parse_module, run_lint
from repro.analysis.cache import LintCache
from run_lifecycle_bench import DEFAULT_OUTPUT, _best_time, write_report

__all__ = ["run_bench", "write_report", "DEFAULT_OUTPUT", "main"]

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TREE = REPO_ROOT / "src" / "repro"


def run_bench(
    *,
    tree: Path = DEFAULT_TREE,
    n_repeats: int = 3,
) -> dict[str, object]:
    """Run the static-analysis suite; returns the ``"analysis"`` payload."""
    tree = Path(tree)
    paths = [tree]

    # One probe run supplies the file count and a parsed module set for the
    # graph-build arm (a warm run skips parsing, so its context is empty).
    probe = run_lint(paths)
    n_files = probe.context.n_files

    results: dict[str, object] = {}

    cold_s = _best_time(lambda: run_lint(paths), n_repeats)
    results["lint_full[cold]"] = {
        "samples_per_sec": n_files / cold_s,
        "wall_s": cold_s,
        "n_files": n_files,
    }

    with tempfile.TemporaryDirectory() as tmp:
        cache_path = Path(tmp) / "reprolint-cache.json"
        run_lint(paths, cache=LintCache(cache_path))  # populate
        warm_s = _best_time(
            lambda: run_lint(paths, cache=LintCache(cache_path)), n_repeats
        )
    results["lint_full[warm_cache]"] = {
        "samples_per_sec": n_files / warm_s,
        "wall_s": warm_s,
        "speedup_vs_cold": cold_s / warm_s,
    }

    sources = [
        (path.read_text(encoding="utf-8"), path.as_posix())
        for path in sorted(tree.rglob("*.py"))
    ]

    def _parse_all() -> None:
        for source, display in sources:
            parse_module(source, display)

    parse_s = _best_time(_parse_all, n_repeats)
    results["parse[tree]"] = {
        "samples_per_sec": len(sources) / parse_s,
        "wall_s": parse_s,
    }

    modules = list(probe.context.modules)
    graph_s = _best_time(
        lambda: build_project(LintContext(modules=modules)), n_repeats
    )
    results["project_graph[build]"] = {
        "samples_per_sec": len(modules) / graph_s,
        "build_latency_s": graph_s,
        "n_modules": len(modules),
    }

    return {
        "benchmark": "static_analysis",
        "version": __version__,
        "config": {
            "tree": str(tree),
            "n_files": n_files,
            "n_repeats": n_repeats,
        },
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=DEFAULT_TREE)
    parser.add_argument("--n-repeats", type=int, default=3)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    if args.n_repeats < 1:
        parser.error("--n-repeats must be >= 1")
    if not args.tree.is_dir():
        parser.error(f"--tree {args.tree} is not a directory")
    payload = run_bench(tree=args.tree, n_repeats=args.n_repeats)
    path = write_report(payload, args.output, section="analysis")
    for name, entry in payload["results"].items():
        line = f"{name:28s} {entry['samples_per_sec']:>12.0f} files/s"
        if "speedup_vs_cold" in entry:
            line += f"  ({entry['speedup_vs_cold']:.0f}x cold)"
        if "wall_s" in entry:
            line += f"  ({1e3 * entry['wall_s']:.1f} ms)"
        print(line)
    print(f"[analysis section written to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
