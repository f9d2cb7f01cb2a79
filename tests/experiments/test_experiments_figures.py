"""Tests for the per-figure/table experiment runners (quick configuration).

These are structural tests: every runner must return the rows the paper's
table/figure needs, with values in valid ranges.  The benchmark harness under
``benchmarks/`` exercises the same runners at a larger scale and records the
actual paper-vs-measured comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    format_fig1,
    format_fig3,
    format_fig4,
    format_fig5,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    run_fig1,
    run_fig3,
    run_fig4,
    run_fig5,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)
from repro.experiments.fig1_known_unknown import FIG1_MODEL_NAMES, split_known_unknown
from repro.experiments.runner import clear_cache
from repro.experiments.table2_improvement import improvement_ratio, mean_improvements
from repro.datasets import load_dataset

QUICK = ExperimentConfig.quick(
    datasets=("wustl_iiot",),
    scale=0.0015,
    epochs=2,
    latent_dim=16,
    hidden_dims=(32,),
)


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestTable1:
    def test_rows_cover_all_datasets(self):
        rows = run_table1(ExperimentConfig(scale=0.001))
        assert len(rows) == 4
        for row in rows:
            assert row["generated_size"] == row["generated_normal"] + row["generated_attack"]
            assert row["attack_types"] == row["paper_attack_types"]

    def test_format(self):
        text = format_table1(run_table1(ExperimentConfig(scale=0.001)))
        assert "Table I" in text and "wustl_iiot" in text


@pytest.fixture(scope="module")
def fig1_rows():
    return run_fig1(QUICK)


class TestFig1:
    def test_rows_structure(self, fig1_rows):
        assert len(fig1_rows) == len(QUICK.datasets) * len(FIG1_MODEL_NAMES)
        for row in fig1_rows:
            assert 0.0 <= row["known_accuracy"] <= 100.0
            assert 0.0 <= row["unknown_accuracy"] <= 100.0

    def test_known_unknown_split_disjoint(self):
        dataset = load_dataset("wustl_iiot", scale=0.001, seed=0)
        known, unknown = split_known_unknown(dataset, seed=0)
        assert set(known).isdisjoint(unknown)
        assert set(known) | set(unknown) == set(dataset.attack_type_names)

    def test_format(self, fig1_rows):
        assert "Fig. 1" in format_fig1(fig1_rows)


class TestFig3AndTable2:
    def test_fig3_rows(self):
        rows = run_fig3(QUICK)
        methods = {row["method"] for row in rows}
        assert methods == {"ADCN", "LwF", "CND-IDS"}
        for row in rows:
            assert 0.0 <= row["avg_f1"] <= 1.0
            assert 0.0 <= row["fwd_transfer"] <= 1.0
            assert -1.0 <= row["bwd_transfer"] <= 1.0

    def test_table2_rows_derived_from_fig3(self):
        fig3_rows = run_fig3(QUICK)
        rows = run_table2(QUICK, fig3_rows=fig3_rows)
        assert {row["baseline"] for row in rows} == {"ADCN", "LwF"}
        for row in rows:
            assert row["avg_improvement"] > 0.0 or np.isnan(row["avg_improvement"])

    def test_mean_improvements_keys(self):
        rows = run_table2(QUICK)
        summary = mean_improvements(rows)
        assert set(summary) <= {"ADCN_avg", "ADCN_fwd", "LwF_avg", "LwF_fwd"}

    def test_improvement_ratio_edge_cases(self):
        assert improvement_ratio(0.5, 0.25) == pytest.approx(2.0)
        assert improvement_ratio(0.5, 0.0) == float("inf")
        assert np.isnan(improvement_ratio(0.0, 0.0))

    def test_formatters(self):
        fig3_rows = run_fig3(QUICK)
        assert "Fig. 3" in format_fig3(fig3_rows)
        assert "Table II" in format_table2(run_table2(QUICK, fig3_rows=fig3_rows))


class TestFig4AndFig5:
    def test_fig4_rows(self):
        rows = run_fig4(QUICK, detectors=("PCA",))
        methods = {row["method"] for row in rows}
        assert methods == {"PCA", "CND-IDS"}
        for row in rows:
            assert 0.0 <= row["mean_f1"] <= 1.0

    def test_fig5_rows(self):
        rows = run_fig5(QUICK)
        methods = {row["method"] for row in rows}
        assert methods == {"DIF", "PCA", "CND-IDS"}
        for row in rows:
            assert 0.0 <= row["mean_prauc"] <= 1.0

    def test_formatters(self):
        assert "Fig. 4" in format_fig4(run_fig4(QUICK, detectors=("PCA",)))
        assert "Fig. 5" in format_fig5(run_fig5(QUICK))


class TestTable3:
    def test_all_variants_present(self):
        rows = run_table3(QUICK)
        strategies = [row["strategy"] for row in rows]
        assert strategies == [
            "CND-IDS",
            "CND-IDS (w/o LCS)",
            "CND-IDS (w/o LR)",
            "CND-IDS (w/o LR and LCL)",
        ]
        for row in rows:
            assert 0.0 <= row["avg_f1_pct"] <= 100.0

    def test_format(self):
        assert "Table III" in format_table3(run_table3(QUICK))


class TestTable4:
    def test_all_methods_timed(self):
        rows = run_table4(QUICK, batch_size=300, n_repeats=1)
        assert [row["method"] for row in rows] == ["CND-IDS", "ADCN", "LwF", "DIF", "PCA"]
        for row in rows:
            assert row["inference_time_ms"] > 0.0

    def test_format(self):
        assert "Table IV" in format_table4(run_table4(QUICK, batch_size=200, n_repeats=1))
