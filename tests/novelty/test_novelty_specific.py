"""Detector-specific behaviour tests beyond the shared contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.novelty import (
    DeepIsolationForest,
    IsolationForest,
    LocalOutlierFactor,
    OneClassSVM,
    PCAReconstructionDetector,
)
from repro.novelty.iforest import average_path_length


class TestPCAReconstructionDetector:
    def test_detects_off_subspace_points(self):
        rng = np.random.default_rng(0)
        basis = rng.normal(size=(2, 10))
        X_train = rng.normal(size=(300, 2)) @ basis + 0.01 * rng.normal(size=(300, 10))
        detector = PCAReconstructionDetector(n_components=2).fit(X_train)
        inliers = rng.normal(size=(50, 2)) @ basis
        outliers = rng.normal(size=(50, 10)) * 3.0
        assert detector.score_samples(outliers).mean() > 100 * detector.score_samples(inliers).mean()

    def test_components_follow_variance_argument(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 6)) * np.array([10, 5, 1, 0.1, 0.05, 0.01])
        detector = PCAReconstructionDetector(n_components=0.9).fit(X)
        assert detector.pca_.n_components_ < 6


class TestLOF:
    def test_scores_near_one_for_uniform_data(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(300, 4))
        detector = LocalOutlierFactor(n_neighbors=15, random_state=0).fit(X)
        scores = detector.score_samples(rng.uniform(size=(100, 4)))
        assert 0.8 < np.median(scores) < 1.5

    def test_isolated_point_scores_high(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 3))
        detector = LocalOutlierFactor(n_neighbors=10, random_state=0).fit(X)
        score_far = detector.score_samples(np.full((1, 3), 50.0))[0]
        score_near = detector.score_samples(np.zeros((1, 3)))[0]
        assert score_far > 3 * score_near

    def test_training_subsampling(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(500, 3))
        detector = LocalOutlierFactor(n_neighbors=5, max_train_samples=100, random_state=0).fit(X)
        assert detector.X_train_.shape[0] == 100

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            LocalOutlierFactor(n_neighbors=10).fit(np.zeros((5, 2)) + np.arange(2))

    def test_invalid_neighbors_raises(self):
        with pytest.raises(ValueError):
            LocalOutlierFactor(n_neighbors=0)


class TestOneClassSVM:
    def test_invalid_nu_raises(self):
        with pytest.raises(ValueError):
            OneClassSVM(nu=0.0)
        with pytest.raises(ValueError):
            OneClassSVM(nu=1.5)

    def test_invalid_gamma_raises(self):
        with pytest.raises(ValueError):
            OneClassSVM(gamma=-1.0)
        with pytest.raises(ValueError):
            OneClassSVM(gamma="auto")

    def test_explicit_gamma_accepted(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4))
        detector = OneClassSVM(nu=0.1, gamma=0.5, n_epochs=10, random_state=0).fit(X)
        assert np.all(np.isfinite(detector.score_samples(X)))

    def test_training_outlier_fraction_bounded(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 5))
        nu = 0.1
        detector = OneClassSVM(nu=nu, n_epochs=40, random_state=0).fit(X)
        scores = detector.score_samples(X)
        flagged = (scores > 0.0).mean()
        # The fraction of training points outside the learned boundary should
        # be in the right ballpark of nu (loose bound; SGD approximation).
        assert flagged < 0.4

    def test_blockwise_scoring_matches_and_bounds_memory(self):
        import tracemalloc

        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 4))
        n_rff = 512
        reference = OneClassSVM(n_features_rff=n_rff, n_epochs=5, random_state=0).fit(X)
        X_query = rng.normal(size=(4000, 4))
        expected = reference.score_samples(X_query)

        blocked = OneClassSVM(
            n_features_rff=n_rff, n_epochs=5, block_size=64, random_state=0
        ).fit(X)
        full_map_bytes = X_query.shape[0] * n_rff * 8
        tracemalloc.start()
        scores = blocked.score_samples(X_query)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Identical model (same rng schedule) and identical per-row math.
        np.testing.assert_allclose(scores, expected, rtol=1e-9, atol=1e-12)
        # The blockwise feature map must stay well under the full map.
        assert peak < full_map_bytes / 2

    def test_invalid_block_size_raises(self):
        with pytest.raises(ValueError):
            OneClassSVM(block_size=0)


class TestIsolationForest:
    def test_average_path_length_known_values(self):
        assert average_path_length(1)[0] == 0.0
        assert average_path_length(2)[0] == 1.0
        # c(256) is about 10.24 in the original paper.
        assert average_path_length(256)[0] == pytest.approx(10.24, abs=0.1)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 4))
        detector = IsolationForest(n_estimators=50, random_state=0).fit(X)
        scores = detector.score_samples(X)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_extreme_point_scores_above_half(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(400, 5))
        detector = IsolationForest(n_estimators=100, random_state=0).fit(X)
        assert detector.score_samples(np.full((1, 5), 10.0))[0] > 0.6

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            IsolationForest(n_estimators=0)
        with pytest.raises(ValueError):
            IsolationForest(max_samples=1)

    def test_subsample_capped_at_dataset_size(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 3))
        detector = IsolationForest(n_estimators=10, max_samples=256, random_state=0).fit(X)
        assert detector.subsample_size_ == 50

    def test_refit_on_a_larger_sample_rescores_with_its_own_path_norm(self):
        """The cached ``c(psi)`` follows a refit that changes ``psi`` (50 -> 256)."""
        rng = np.random.default_rng(2)
        small, large = rng.normal(size=(50, 3)), rng.normal(size=(400, 3))
        refit = IsolationForest(n_estimators=10, random_state=0).fit(small).fit(large)
        fresh = IsolationForest(n_estimators=10, random_state=0).fit(large)
        assert refit.subsample_size_ == fresh.subsample_size_ == 256
        assert refit.score_samples(large).tobytes() == fresh.score_samples(large).tobytes()

    def test_overflowing_column_range_raises(self):
        # Finite data whose max - min overflows: the split draw refuses the
        # range rather than returning an infinite threshold.
        X = np.random.default_rng(3).choice([-1e308, 1e308], size=(64, 3))
        with pytest.raises(OverflowError):
            IsolationForest(n_estimators=3, random_state=0).fit(X)


class TestDeepIsolationForest:
    def test_ensemble_sizes(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 6))
        detector = DeepIsolationForest(
            n_representations=4, n_estimators_per_representation=5, random_state=0
        ).fit(X)
        assert len(detector.networks_) == 4
        assert len(detector.forests_) == 4

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            DeepIsolationForest(n_representations=0)

    def test_deterministic_given_seed(self, normal_and_anomalies):
        X_train, X_normal, _ = normal_and_anomalies
        scores_a = DeepIsolationForest(n_representations=2, random_state=3).fit(X_train).score_samples(X_normal)
        scores_b = DeepIsolationForest(n_representations=2, random_state=3).fit(X_train).score_samples(X_normal)
        np.testing.assert_allclose(scores_a, scores_b)

    def test_blockwise_scoring_matches_and_bounds_memory(self):
        import tracemalloc

        rng = np.random.default_rng(4)
        X = rng.normal(size=(250, 5))
        hidden = 256
        make = lambda block_size: DeepIsolationForest(
            n_representations=2,
            n_estimators_per_representation=5,
            hidden_dims=(hidden,),
            block_size=block_size,
            random_state=0,
        ).fit(X)
        X_query = rng.normal(size=(3000, 5))
        expected = make(1 << 20).score_samples(X_query)  # effectively one block

        blocked = make(64)
        full_hidden_bytes = X_query.shape[0] * hidden * 8
        tracemalloc.start()
        scores = blocked.score_samples(X_query)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        np.testing.assert_allclose(scores, expected, rtol=1e-9, atol=1e-12)
        # Hidden activations must only ever exist for one block of rows.
        assert peak < full_hidden_bytes / 2

    def test_invalid_block_size_raises(self):
        with pytest.raises(ValueError):
            DeepIsolationForest(block_size=0)

    def test_forests_walk_on_one_thread(self, monkeypatch):
        # The walks alternate with the networks' multi-threaded BLAS calls,
        # where an OpenMP team spinning between walks would take a core.
        from repro.ml import native

        calls = []
        forest_sum = native.forest_sum

        def recording(X, kernel, n_threads=None):
            calls.append(n_threads)
            return forest_sum(X, kernel, n_threads)

        monkeypatch.setattr(native, "forest_sum", recording)
        X = np.random.default_rng(5).normal(size=(600, 6))
        detector = DeepIsolationForest(n_representations=2, random_state=0).fit(X)
        detector.score_samples(X)
        assert calls and set(calls) == {1}
