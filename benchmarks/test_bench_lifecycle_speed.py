"""Benchmark: refit latency and hot-swap stall of the lifecycle layer.

Writes the ``"lifecycle"`` section of ``BENCH_inference.json`` (the trend
check compares it across PRs) and sanity-checks the two operational costs of
online refit: training a candidate on the clean window must stay far cheaper
than re-scoring the stream it protects, and a hot-swap must stall the
serving loop for well under a second.
"""

from __future__ import annotations

from run_lifecycle_bench import (
    DEFAULT_OUTPUT,
    run_bench,
    run_shadow_bench,
    write_report,
)


def test_bench_lifecycle_costs():
    payload = run_bench(window=4096, n_repeats=3)
    path = write_report(payload, DEFAULT_OUTPUT)
    print(f"[lifecycle section written to {path}]")

    results = payload["results"]
    for name, entry in results.items():
        assert entry["samples_per_sec"] > 0.0, name

    refit = results["FullRefit.refit[iforest]"]
    # refitting 4096 rows is a training pass; generous ceiling that still
    # catches an accidental quadratic blow-up
    assert refit["refit_latency_s"] < 30.0

    swap = results["DetectionService.reload_detector[iforest]"]
    assert swap["swap_stall_s"] < 1.0


def test_bench_shadow_overhead():
    payload = run_shadow_bench(n_repeats=3)
    path = write_report(payload, DEFAULT_OUTPUT, section="shadow")
    print(f"[shadow section written to {path}]")

    results = payload["results"]
    for name, entry in results.items():
        assert entry["samples_per_sec"] > 0.0, name
    overhead = results["shadow_round[iforest]"]["overhead_vs_single"]
    # double-scoring plus O(1) stats: roughly 2x a single score, never an
    # order of magnitude (that would mean the stats update went quadratic)
    assert overhead < 10.0, overhead
