"""Tests for the CND loss configuration and pseudo-label computation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.continual.scenario import ContinualScenario
from repro.core import CNDLossConfig, compute_pseudo_labels
from repro.datasets import load_dataset
from repro.ml import native
from repro.ml.scalers import StandardScaler


class TestCNDLossConfig:
    def test_defaults_match_paper(self):
        config = CNDLossConfig()
        assert config.lambda_r == pytest.approx(0.1)
        assert config.lambda_cl == pytest.approx(0.1)
        assert config.margin == pytest.approx(2.0)
        assert config.use_cluster_separation and config.use_reconstruction and config.use_continual

    def test_ablation_constructors(self):
        assert not CNDLossConfig.without_cluster_separation().use_cluster_separation
        assert not CNDLossConfig.without_reconstruction().use_reconstruction
        variant = CNDLossConfig.without_reconstruction_and_continual()
        assert not variant.use_reconstruction and not variant.use_continual
        assert variant.use_cluster_separation

    @pytest.mark.parametrize(
        "kwargs",
        [{"lambda_r": -0.1}, {"lambda_r": 1.5}, {"lambda_cl": 2.0}, {"margin": 0.0}],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CNDLossConfig(**kwargs)

    def test_frozen(self):
        config = CNDLossConfig()
        with pytest.raises(Exception):
            config.lambda_r = 0.5  # type: ignore[misc]

    def test_equality_for_cache_keys(self):
        assert CNDLossConfig() == CNDLossConfig.full()
        assert CNDLossConfig() != CNDLossConfig.without_reconstruction()


class TestPseudoLabels:
    def _clustered_data(self, seed: int = 0):
        """Normal cluster near the origin, attack cluster far away."""
        rng = np.random.default_rng(seed)
        normal_train = rng.normal(0.0, 1.0, size=(150, 5))
        attack_train = rng.normal(9.0, 1.0, size=(70, 5))
        X_train = np.vstack([normal_train, attack_train])
        truth = np.array([0] * 150 + [1] * 70)
        clean_normal = rng.normal(0.0, 1.0, size=(40, 5))
        return X_train, truth, clean_normal

    def test_labels_match_ground_truth_on_separable_data(self):
        X_train, truth, clean_normal = self._clustered_data()
        labels, _ = compute_pseudo_labels(X_train, clean_normal, n_clusters=2, random_state=0)
        assert (labels == truth).mean() > 0.95

    def test_clusters_containing_clean_normal_are_class_zero(self):
        X_train, _, clean_normal = self._clustered_data(1)
        labels, kmeans = compute_pseudo_labels(X_train, clean_normal, n_clusters=3, random_state=0)
        normal_clusters = np.unique(kmeans.predict(clean_normal))
        member_of_normal_cluster = np.isin(kmeans.labels_, normal_clusters)
        np.testing.assert_array_equal(labels[member_of_normal_cluster], 0)
        np.testing.assert_array_equal(labels[~member_of_normal_cluster], 1)

    def test_elbow_method_used_when_k_not_given(self):
        X_train, truth, clean_normal = self._clustered_data(2)
        labels, kmeans = compute_pseudo_labels(X_train, clean_normal, random_state=0)
        assert kmeans.n_clusters >= 2
        assert (labels == truth).mean() > 0.9

    def test_all_points_normal_when_everything_near_clean_data(self):
        rng = np.random.default_rng(3)
        X_train = rng.normal(0.0, 1.0, size=(100, 4))
        clean_normal = rng.normal(0.0, 1.0, size=(30, 4))
        labels, _ = compute_pseudo_labels(X_train, clean_normal, n_clusters=2, random_state=0)
        # Both clusters should contain clean-normal points, so nothing is anomalous.
        assert labels.sum() <= 10

    def test_feature_mismatch_raises(self):
        with pytest.raises(ValueError):
            compute_pseudo_labels(np.zeros((10, 3)) + np.arange(3), np.zeros((5, 4)) + np.arange(4))

    def test_n_clusters_capped_by_samples(self):
        rng = np.random.default_rng(4)
        X_train = rng.normal(size=(6, 3))
        clean_normal = rng.normal(size=(4, 3))
        labels, kmeans = compute_pseudo_labels(
            X_train, clean_normal, n_clusters=50, random_state=0
        )
        assert kmeans.n_clusters <= 6
        assert labels.shape == (6,)

    def test_deterministic_given_seed(self):
        X_train, _, clean_normal = self._clustered_data(5)
        labels_a, _ = compute_pseudo_labels(X_train, clean_normal, n_clusters=4, random_state=7)
        labels_b, _ = compute_pseudo_labels(X_train, clean_normal, n_clusters=4, random_state=7)
        np.testing.assert_array_equal(labels_a, labels_b)


def test_pseudo_labels_are_the_same_bytes_without_native_kernels(monkeypatch):
    """The elbow search and the final fit on a scaled X-IIoTID experience give
    the same labels, centres and inertia on the native and NumPy paths."""
    monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
    if not native.available():
        pytest.skip("native kernels unavailable (no C compiler)")
    scenario = ContinualScenario.from_dataset(
        load_dataset("xiiotid", scale=0.01, seed=0), n_experiences=5, seed=0
    )
    scaler = StandardScaler().fit(scenario.clean_normal)
    X_train = scaler.transform(scenario[1].X_train)
    clean_normal = scaler.transform(scenario.clean_normal)
    runs = []
    for disable in ("", "1"):
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", disable)
        labels, kmeans = compute_pseudo_labels(X_train, clean_normal, random_state=0)
        runs.append(
            (
                kmeans.n_clusters,
                labels.tobytes(),
                kmeans.labels_.tobytes(),
                kmeans.cluster_centers_.tobytes(),
                kmeans.inertia_,
            )
        )
    assert runs[0] == runs[1]
