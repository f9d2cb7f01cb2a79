"""Tests for the evaluation protocol, config and reporting helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CNDIDS
from repro.experiments import (
    ExperimentConfig,
    format_table,
    measure_inference_time,
    protocol,
    run_continual_method,
    run_static_detector,
)
from repro.novelty import PCAReconstructionDetector


class TestExperimentConfig:
    def test_defaults_cover_all_datasets(self):
        config = ExperimentConfig()
        assert set(config.datasets) == {"cicids2017", "unsw_nb15", "wustl_iiot", "xiiotid"}

    def test_paper_experience_counts(self):
        config = ExperimentConfig()
        assert config.n_experiences("wustl_iiot") == 4
        assert config.n_experiences("xiiotid") == 5

    def test_override_experience_count(self):
        config = ExperimentConfig(n_experiences_override=2)
        assert config.n_experiences("xiiotid") == 2

    def test_quick_preset_is_small(self):
        quick = ExperimentConfig.quick()
        assert quick.scale < ExperimentConfig().scale
        assert quick.n_experiences_override == 2

    def test_paper_preset_uses_all_datasets(self):
        paper = ExperimentConfig.paper()
        assert len(paper.datasets) == 4
        assert paper.scale > ExperimentConfig().scale

    def test_presets_accept_overrides(self):
        config = ExperimentConfig.quick(seed=7)
        assert config.seed == 7

    def test_config_hashable_for_caching(self):
        assert hash(ExperimentConfig.quick()) == hash(ExperimentConfig.quick())


class TestRunContinualMethod:
    def test_result_matrix_filled(self, tiny_scenario):
        model = CNDIDS(
            input_dim=tiny_scenario.n_features,
            latent_dim=8,
            hidden_dims=(16,),
            epochs=2,
            random_state=0,
        )
        result = run_continual_method(model, tiny_scenario)
        assert result.f1_matrix.values.shape == (2, 2)
        assert not np.any(np.isnan(result.f1_matrix.values))
        assert result.prauc_matrix is not None
        assert result.train_time_s > 0.0
        assert result.inference_time_ms_per_sample > 0.0

    def test_summary_keys(self, tiny_scenario):
        model = CNDIDS(
            input_dim=tiny_scenario.n_features,
            latent_dim=8,
            hidden_dims=(16,),
            epochs=1,
            random_state=0,
        )
        summary = run_continual_method(model, tiny_scenario).summary()
        assert {"method", "dataset", "avg_f1", "fwd_transfer", "bwd_transfer"} <= set(summary)

    def test_prauc_skipped_when_not_requested(self, tiny_scenario):
        model = CNDIDS(
            input_dim=tiny_scenario.n_features,
            latent_dim=8,
            hidden_dims=(16,),
            epochs=1,
            random_state=0,
        )
        result = run_continual_method(model, tiny_scenario, compute_prauc=False)
        assert result.prauc_matrix is None
        assert np.isnan(result.avg_prauc)


class TestRunStaticDetector:
    def test_per_experience_results(self, tiny_scenario):
        detector = PCAReconstructionDetector(n_components=0.95)
        result = run_static_detector(detector, tiny_scenario, detector_name="PCA")
        assert len(result.per_experience_f1) == tiny_scenario.n_experiences
        assert 0.0 <= result.mean_f1 <= 1.0
        assert 0.0 <= result.mean_prauc <= 1.0
        assert result.method_name == "PCA"

    def test_summary_keys(self, tiny_scenario):
        detector = PCAReconstructionDetector()
        summary = run_static_detector(detector, tiny_scenario).summary()
        assert {"method", "dataset", "mean_f1", "mean_prauc"} <= set(summary)


class TestMeasureInferenceTime:
    def test_positive_time(self):
        X = np.random.default_rng(0).normal(size=(500, 4))
        times = measure_inference_time({"sum": (lambda batch: batch.sum(axis=1), X)})
        assert times["sum"] > 0.0

    def test_rounds_interleave_every_call(self):
        order = []
        X = np.ones((4, 2))
        calls = {name: (lambda batch, name=name: order.append(name), X) for name in "ab"}
        times = measure_inference_time(calls, n_rounds=3)
        assert order == ["a", "b"] * 3
        assert set(times) == {"a", "b"}

    def test_reports_the_median_round(self, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(protocol.time, "perf_counter", lambda: clock[0])
        durations = iter([0.004, 1.0, 0.002, 0.003, 0.5])

        def score_fn(batch):
            clock[0] += next(durations)

        times = measure_inference_time({"fn": (score_fn, np.ones((2, 1)))}, n_rounds=5)
        assert times["fn"] == pytest.approx(1000.0 * 0.004 / 2)

    def test_empty_batch_gives_nan(self):
        times = measure_inference_time({"id": (lambda batch: batch, np.empty((0, 3)))})
        assert np.isnan(times["id"])


class TestFormatTable:
    def test_contains_headers_and_values(self):
        rows = [{"method": "CND-IDS", "f1": 0.91}, {"method": "PCA", "f1": 0.82}]
        text = format_table(rows, title="Results")
        assert "Results" in text
        assert "CND-IDS" in text
        assert "0.9100" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])

    def test_column_selection_and_precision(self):
        rows = [{"a": 1.23456, "b": "x"}]
        text = format_table(rows, columns=["a"], precision=2)
        assert "1.23" in text
        assert "x" not in text

    def test_nan_rendered(self):
        text = format_table([{"a": float("nan")}])
        assert "nan" in text
