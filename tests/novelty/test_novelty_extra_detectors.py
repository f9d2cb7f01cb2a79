"""Behaviour tests for the Mahalanobis detector, a Gaussian reference outside the paper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.novelty import MahalanobisDetector


class TestMahalanobis:
    def test_reduces_to_euclidean_for_identity_covariance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5000, 3))
        detector = MahalanobisDetector(shrinkage=0.0).fit(X)
        point = np.array([[2.0, 0.0, 0.0]])
        score = detector.score_samples(point)[0]
        expected = float(np.sum((point - X.mean(axis=0)) ** 2))
        assert score == pytest.approx(expected, rel=0.1)

    def test_accounts_for_correlation(self):
        """A point off the correlation axis is more anomalous than one on it."""
        rng = np.random.default_rng(1)
        z = rng.normal(size=(2000, 1))
        X = np.hstack([z, z + 0.05 * rng.normal(size=(2000, 1))])
        detector = MahalanobisDetector(shrinkage=0.01).fit(X)
        on_axis = detector.score_samples(np.array([[2.0, 2.0]]))[0]
        off_axis = detector.score_samples(np.array([[2.0, -2.0]]))[0]
        assert off_axis > 10 * on_axis

    def test_handles_degenerate_covariance(self):
        X = np.column_stack([np.ones(50), np.arange(50, dtype=float)])
        detector = MahalanobisDetector(shrinkage=0.1).fit(X)
        assert np.all(np.isfinite(detector.score_samples(X)))

    def test_invalid_shrinkage(self):
        with pytest.raises(ValueError):
            MahalanobisDetector(shrinkage=1.0)
