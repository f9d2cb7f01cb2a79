"""Benchmark: multi-core kernel and serving-loop throughput.

Writes the ``"parallel"`` section of ``BENCH_inference.json`` (the trend
check compares it across PRs) and sanity-checks every entry measured a
positive rate.
"""

from __future__ import annotations

from run_parallel_bench import DEFAULT_OUTPUT, run_bench, write_report


def test_bench_parallel_throughput():
    payload = run_bench(n_rows=20_000, n_repeats=3)
    path = write_report(payload, DEFAULT_OUTPUT)
    print(f"[parallel section written to {path}]")

    for name, entry in payload["results"].items():
        assert entry["samples_per_sec"] > 0.0, name
