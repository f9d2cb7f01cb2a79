"""API-contract tests shared by every novelty detector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.novelty import (
    DeepIsolationForest,
    IsolationForest,
    LocalOutlierFactor,
    MahalanobisDetector,
    NoveltyDetector,
    OneClassSVM,
    PCAReconstructionDetector,
)

DETECTOR_FACTORIES = {
    "pca": lambda: PCAReconstructionDetector(n_components=0.95),
    "lof": lambda: LocalOutlierFactor(n_neighbors=10, random_state=0),
    "ocsvm": lambda: OneClassSVM(nu=0.1, n_epochs=10, random_state=0),
    "iforest": lambda: IsolationForest(n_estimators=30, random_state=0),
    "dif": lambda: DeepIsolationForest(
        n_representations=3, n_estimators_per_representation=10, random_state=0
    ),
    "mahalanobis": lambda: MahalanobisDetector(),
    # Non-default configurations: each takes a code path the defaults above
    # skip (no training cap, ragged last neighbour block, integer rank,
    # unshrunk covariance, explicit kernel width, ragged random-feature
    # scoring blocks, small isolation subsample, narrow representations
    # scored in ragged blocks) and must honour the same contract.
    "lof-uncapped-blocked": lambda: LocalOutlierFactor(
        n_neighbors=5, max_train_samples=None, block_size=33, random_state=1
    ),
    "pca-fixed-rank": lambda: PCAReconstructionDetector(n_components=3),
    "mahalanobis-unshrunk": lambda: MahalanobisDetector(shrinkage=0.0, threshold_quantile=0.75),
    "ocsvm-fixed-gamma": lambda: OneClassSVM(
        nu=0.05, gamma=0.2, n_features_rff=64, n_epochs=5, batch_size=50, random_state=1
    ),
    "ocsvm-blocked": lambda: OneClassSVM(
        nu=0.05, gamma=0.2, n_features_rff=64, n_epochs=5, batch_size=50,
        block_size=37, random_state=1,
    ),
    "iforest-small-subsample": lambda: IsolationForest(
        n_estimators=20, max_samples=32, threshold_quantile=0.75, random_state=3
    ),
    "dif-narrow-blocked": lambda: DeepIsolationForest(
        n_representations=2, n_estimators_per_representation=8, representation_dim=8,
        hidden_dims=(32,), max_samples=64, block_size=45, random_state=1,
    ),
}


@pytest.fixture(params=sorted(DETECTOR_FACTORIES), ids=sorted(DETECTOR_FACTORIES))
def detector_factory(request):
    return DETECTOR_FACTORIES[request.param]


@pytest.fixture
def detector(detector_factory) -> NoveltyDetector:
    return detector_factory()


class TestDetectorContract:
    def test_fit_returns_self(self, detector, normal_and_anomalies):
        X_train, _, _ = normal_and_anomalies
        assert detector.fit(X_train) is detector

    def test_scores_shape_and_finiteness(self, detector, normal_and_anomalies):
        X_train, X_normal, X_anomalous = normal_and_anomalies
        detector.fit(X_train)
        scores = detector.score_samples(np.vstack([X_normal, X_anomalous]))
        assert scores.shape == (200,)
        assert np.all(np.isfinite(scores))

    def test_anomalies_score_higher_than_normal(self, detector, normal_and_anomalies):
        X_train, X_normal, X_anomalous = normal_and_anomalies
        detector.fit(X_train)
        normal_scores = detector.score_samples(X_normal)
        anomalous_scores = detector.score_samples(X_anomalous)
        assert anomalous_scores.mean() > normal_scores.mean()

    def test_predict_is_binary(self, detector, normal_and_anomalies):
        X_train, X_normal, X_anomalous = normal_and_anomalies
        detector.fit(X_train)
        predictions = detector.predict(np.vstack([X_normal, X_anomalous]))
        assert set(np.unique(predictions)).issubset({0, 1})

    def test_predict_flags_anomalies_more_often(self, detector, normal_and_anomalies):
        X_train, X_normal, X_anomalous = normal_and_anomalies
        detector.fit(X_train)
        normal_rate = detector.predict(X_normal).mean()
        anomalous_rate = detector.predict(X_anomalous).mean()
        assert anomalous_rate > normal_rate

    def test_default_threshold_set_after_fit(self, detector, normal_and_anomalies):
        X_train, _, _ = normal_and_anomalies
        detector.fit(X_train)
        assert detector.threshold_ is not None

    def test_score_before_fit_raises(self, detector):
        with pytest.raises((RuntimeError, ValueError)):
            detector.score_samples(np.zeros((3, 6)))

    def test_predict_with_explicit_threshold(self, detector, normal_and_anomalies):
        X_train, X_normal, _ = normal_and_anomalies
        detector.fit(X_train)
        everything_flagged = detector.predict(X_normal, threshold=-np.inf)
        assert np.all(everything_flagged == 1)

    def test_empty_input_scores_empty(self, detector, normal_and_anomalies):
        X_train, _, _ = normal_and_anomalies
        detector.fit(X_train)
        assert detector.score_samples(np.empty((0, X_train.shape[1]))).shape == (0,)


class TestDetectorInvariants:
    """Properties the serving stack relies on: it scores micro-batches of
    arbitrary order, re-fits from the same config and never copies inputs."""

    def test_fit_leaves_training_data_unchanged(self, detector, normal_and_anomalies):
        X_train, _, _ = normal_and_anomalies
        X_copy = X_train.copy()
        detector.fit(X_copy)
        np.testing.assert_array_equal(X_copy, X_train)

    def test_scores_follow_rows_under_permutation(self, detector, normal_and_anomalies):
        X_train, X_normal, X_anomalous = normal_and_anomalies
        X_test = np.vstack([X_normal, X_anomalous])
        detector.fit(X_train)
        order = np.random.default_rng(0).permutation(len(X_test))
        np.testing.assert_array_equal(
            detector.score_samples(X_test[order]), detector.score_samples(X_test)[order]
        )

    def test_same_config_refits_to_same_scores(self, detector_factory, normal_and_anomalies):
        X_train, X_normal, X_anomalous = normal_and_anomalies
        X_test = np.vstack([X_normal, X_anomalous])
        first = detector_factory().fit(X_train)
        second = detector_factory().fit(X_train)
        np.testing.assert_array_equal(second.score_samples(X_test), first.score_samples(X_test))
        assert second.threshold_ == first.threshold_

    def test_wrong_feature_count_raises(self, detector, normal_and_anomalies):
        X_train, _, _ = normal_and_anomalies
        detector.fit(X_train)
        with pytest.raises(ValueError):
            detector.score_samples(np.zeros((3, X_train.shape[1] - 1)))

    def test_empty_query_of_wrong_width_raises(self, detector, normal_and_anomalies):
        X_train, _, _ = normal_and_anomalies
        detector.fit(X_train)
        with pytest.raises(ValueError, match="features"):
            detector.score_samples(np.empty((0, X_train.shape[1] + 2)))

    def test_non_finite_query_raises(self, detector, normal_and_anomalies):
        X_train, X_normal, _ = normal_and_anomalies
        detector.fit(X_train)
        X_bad = X_normal[:4].copy()
        X_bad[2, 1] = np.nan
        with pytest.raises(ValueError):
            detector.score_samples(X_bad)

    def test_nested_lists_score_like_arrays(self, detector, normal_and_anomalies):
        X_train, X_normal, _ = normal_and_anomalies
        detector.fit(X_train)
        np.testing.assert_array_equal(
            detector.score_samples(X_normal.tolist()), detector.score_samples(X_normal)
        )

    def test_predict_flags_scores_strictly_above_threshold(self, detector, normal_and_anomalies):
        X_train, X_normal, X_anomalous = normal_and_anomalies
        X_test = np.vstack([X_normal, X_anomalous, X_train[:50]])
        detector.fit(X_train)
        scores = detector.score_samples(X_test)
        np.testing.assert_array_equal(
            detector.predict(X_test), (scores > detector.threshold_).astype(np.int64)
        )
        median_row = int(np.argsort(scores)[len(scores) // 2])
        at_median = detector.predict(X_test, threshold=float(scores[median_row]))
        assert at_median[median_row] == 0
        np.testing.assert_array_equal(at_median, (scores > scores[median_row]).astype(np.int64))

    def test_training_flag_rate_respects_threshold_quantile(self, detector, normal_and_anomalies):
        X_train, _, _ = normal_and_anomalies
        flagged = detector.fit_predict(X_train)
        assert flagged.mean() <= 1.0 - detector.threshold_quantile

    def test_constant_training_feature_is_handled(self, detector, normal_and_anomalies):
        """Flow features are often constant within one capture (a fixed port or
        protocol column); fitting on one must not produce non-finite scores."""
        X_train, X_normal, X_anomalous = normal_and_anomalies
        X_const = X_train.copy()
        X_const[:, 2] = 3.0
        detector.fit(X_const)
        X_test = np.vstack([X_normal, X_anomalous])
        X_test[:, 2] = 3.0
        scores = detector.score_samples(X_test)
        assert np.all(np.isfinite(scores))
        assert scores[len(X_normal):].mean() > scores[: len(X_normal)].mean()


class TestBaseClassValidation:
    def test_invalid_threshold_quantile(self):
        with pytest.raises(ValueError):
            PCAReconstructionDetector(threshold_quantile=1.5)

    def test_predict_without_threshold_raises(self):
        detector = NoveltyDetector()
        with pytest.raises(RuntimeError, match="threshold"):
            detector.predict(np.zeros((2, 2)))

    def test_base_fit_not_implemented(self):
        with pytest.raises(NotImplementedError):
            NoveltyDetector().fit(np.zeros((2, 2)))
