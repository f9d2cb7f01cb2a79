"""Benchmark: regenerate Table I (dataset statistics)."""

from __future__ import annotations

from bench_config import regenerate

from repro.experiments.cli import EXPERIMENTS


def test_bench_table1_datasets(benchmark):
    rows = regenerate(benchmark, EXPERIMENTS["table1"])

    assert len(rows) == 4
    for row in rows:
        # The generated datasets keep the paper's attack-family counts and the
        # normal/attack proportions of the reference datasets.
        assert row["attack_types"] == row["paper_attack_types"]
        assert row["generated_size"] == row["generated_normal"] + row["generated_attack"]
