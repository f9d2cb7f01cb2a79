"""Tests for the ADCN and LwF unsupervised continual-learning baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.continual import ADCN, LwF
from repro.continual.base import ContinualMethod


def _make_experience_data(seed: int, shift: float = 0.0):
    """Normal cluster at the origin plus an attack cluster far away (optionally shifted)."""
    rng = np.random.default_rng(seed)
    normal = rng.normal(0.0 + shift, 1.0, size=(200, 8))
    attack = rng.normal(7.0 + shift, 1.0, size=(60, 8))
    X_train = np.vstack([normal, attack])
    calibration_X = np.vstack([normal[:20], attack[:20]])
    calibration_y = np.array([0] * 20 + [1] * 20)
    X_test = np.vstack([rng.normal(0.0 + shift, 1.0, size=(50, 8)), rng.normal(7.0 + shift, 1.0, size=(50, 8))])
    y_test = np.array([0] * 50 + [1] * 50)
    return X_train, calibration_X, calibration_y, X_test, y_test


@pytest.fixture(params=["adcn", "lwf"], ids=["adcn", "lwf"])
def baseline(request):
    factory = {
        "adcn": lambda: ADCN(8, latent_dim=8, hidden_dims=(32,), epochs=5, random_state=0),
        "lwf": lambda: LwF(8, latent_dim=8, hidden_dims=(32,), epochs=5, random_state=0),
    }
    return factory[request.param]()


class TestBaselineContract:
    def test_requires_labels_flag(self, baseline):
        assert baseline.requires_labels is True
        assert baseline.supports_scores is False

    def test_predict_before_fit_raises(self, baseline):
        with pytest.raises(RuntimeError):
            baseline.predict(np.zeros((3, 8)))

    def test_score_samples_not_supported(self, baseline):
        with pytest.raises(NotImplementedError):
            baseline.score_samples(np.zeros((3, 8)))

    def test_learns_separable_experience(self, baseline):
        X_train, cal_X, cal_y, X_test, y_test = _make_experience_data(0)
        baseline.setup(X_train[:50])
        baseline.fit_experience(X_train, calibration_X=cal_X, calibration_y=cal_y)
        accuracy = (baseline.predict(X_test) == y_test).mean()
        assert accuracy > 0.9

    def test_predictions_binary(self, baseline):
        X_train, cal_X, cal_y, X_test, _ = _make_experience_data(1)
        baseline.fit_experience(X_train, calibration_X=cal_X, calibration_y=cal_y)
        assert set(np.unique(baseline.predict(X_test))).issubset({0, 1})

    def test_multiple_experiences_update_state(self, baseline):
        first = _make_experience_data(0)
        second = _make_experience_data(1, shift=2.0)
        baseline.fit_experience(first[0], calibration_X=first[1], calibration_y=first[2])
        baseline.fit_experience(second[0], calibration_X=second[1], calibration_y=second[2])
        assert baseline.experience_count == 2

    def test_missing_calibration_defaults_to_normal_labels(self, baseline):
        X_train, _, _, X_test, _ = _make_experience_data(2)
        baseline.fit_experience(X_train)
        predictions = baseline.predict(X_test)
        # With no labels every cluster defaults to class 0.
        assert set(np.unique(predictions)) == {0}


class TestADCNSpecific:
    def test_cluster_count_grows_with_novel_data(self):
        model = ADCN(8, latent_dim=8, hidden_dims=(32,), epochs=4, n_clusters=4, random_state=0)
        first = _make_experience_data(0)
        model.fit_experience(first[0], calibration_X=first[1], calibration_y=first[2])
        n_before = model.cluster_centers_.shape[0]
        # A very different second experience should spawn extra clusters.
        far = _make_experience_data(1, shift=30.0)
        model.fit_experience(far[0], calibration_X=far[1], calibration_y=far[2])
        assert model.cluster_centers_.shape[0] >= n_before

    def test_max_clusters_respected(self):
        model = ADCN(8, latent_dim=8, hidden_dims=(16,), epochs=2, n_clusters=4, max_clusters=6, random_state=0)
        for seed in range(3):
            data = _make_experience_data(seed, shift=10.0 * seed)
            model.fit_experience(data[0], calibration_X=data[1], calibration_y=data[2])
        assert model.cluster_centers_.shape[0] <= 6

    def test_invalid_novelty_factor(self):
        with pytest.raises(ValueError):
            ADCN(8, novelty_factor=0.0)


class TestLwFSpecific:
    def test_previous_model_snapshot_stored(self):
        model = LwF(8, latent_dim=8, hidden_dims=(16,), epochs=2, random_state=0)
        data = _make_experience_data(0)
        assert model._previous_model is None
        model.fit_experience(data[0], calibration_X=data[1], calibration_y=data[2])
        assert model._previous_model is not None
        assert all(p.grad is None for p in model._previous_model.parameters())

    def test_distillation_limits_drift(self):
        """With a huge LwF weight the model barely moves between experiences."""
        first = _make_experience_data(0)
        second = _make_experience_data(1, shift=5.0)
        probe = np.random.default_rng(3).normal(size=(30, 8))

        def drift(lambda_lwf: float) -> float:
            model = LwF(8, latent_dim=8, hidden_dims=(16,), epochs=5, lambda_lwf=lambda_lwf, random_state=0)
            model.fit_experience(first[0], calibration_X=first[1], calibration_y=first[2])
            scaled = model.scaler.transform(probe)
            before = model.autoencoder.encode(scaled)
            model.fit_experience(second[0], calibration_X=second[1], calibration_y=second[2])
            after = model.autoencoder.encode(scaled)
            return float(np.mean((after - before) ** 2))

        assert drift(lambda_lwf=50.0) < drift(lambda_lwf=0.0)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            LwF(8, lambda_lwf=-1.0)


class TestContinualMethodBase:
    def test_base_class_raises_not_implemented(self):
        method = ContinualMethod()
        with pytest.raises(NotImplementedError):
            method.fit_experience(np.zeros((2, 2)))
        with pytest.raises(NotImplementedError):
            method.predict(np.zeros((2, 2)))
        with pytest.raises(NotImplementedError):
            method.score_samples(np.zeros((2, 2)))

    def test_name_defaults_to_class_name(self):
        assert ContinualMethod().name == "ContinualMethod"
