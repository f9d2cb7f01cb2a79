"""Tests for pairwise distances and feature scalers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.ml import MinMaxScaler, StandardScaler, pairwise_euclidean
from repro.ml.distances import pairwise_squared_euclidean

finite_matrix = npst.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 6)),
    elements=st.floats(-50, 50, allow_nan=False),
)


class TestPairwiseDistances:
    def test_matches_naive_computation(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(7, 4))
        B = rng.normal(size=(5, 4))
        expected = np.array([[np.linalg.norm(a - b) for b in B] for a in A])
        np.testing.assert_allclose(pairwise_euclidean(A, B), expected, atol=1e-10)

    def test_self_distance_zero_diagonal(self):
        A = np.random.default_rng(1).normal(size=(6, 3))
        distances = pairwise_euclidean(A, A)
        np.testing.assert_allclose(np.diag(distances), 0.0, atol=1e-7)

    def test_feature_mismatch_raises(self):
        with pytest.raises(ValueError, match="feature dimensions"):
            pairwise_euclidean(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            pairwise_euclidean(np.zeros(3), np.zeros((2, 3)))

    @given(finite_matrix)
    def test_squared_distances_nonnegative(self, A):
        d2 = pairwise_squared_euclidean(A, A)
        assert np.all(d2 >= 0.0)

    @given(finite_matrix)
    def test_symmetry(self, A):
        d = pairwise_euclidean(A, A)
        np.testing.assert_allclose(d, d.T, atol=1e-8)


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        X = np.random.default_rng(0).normal(5.0, 3.0, size=(200, 4))
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_not_scaled(self):
        X = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))
        np.testing.assert_allclose(Z[:, 0], 0.0)

    def test_inverse_transform_roundtrip(self):
        X = np.random.default_rng(1).normal(size=(50, 3)) * 7 + 2
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(X)), X, atol=1e-9)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_feature_count_mismatch_raises(self):
        scaler = StandardScaler().fit(np.zeros((5, 3)) + np.arange(3))
        with pytest.raises(ValueError, match="features"):
            scaler.transform(np.zeros((2, 4)))

    @given(finite_matrix)
    def test_transform_finite(self, X):
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))


class TestMinMaxScaler:
    def test_range_is_zero_one(self):
        X = np.random.default_rng(0).normal(size=(100, 5)) * 10
        Z = MinMaxScaler().fit_transform(X)
        assert Z.min() >= -1e-12
        assert Z.max() <= 1.0 + 1e-12

    def test_constant_feature_handled(self):
        X = np.column_stack([np.full(10, 3.0), np.arange(10, dtype=float)])
        Z = MinMaxScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))

    def test_inverse_transform_roundtrip(self):
        X = np.random.default_rng(2).uniform(-5, 5, size=(40, 4))
        scaler = MinMaxScaler().fit(X)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(X)), X, atol=1e-10)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MinMaxScaler().transform(np.zeros((2, 2)))

    def test_feature_count_mismatch_raises(self):
        scaler = MinMaxScaler().fit(np.random.default_rng(0).normal(size=(5, 3)))
        with pytest.raises(ValueError, match="features"):
            scaler.transform(np.zeros((2, 2)))


@pytest.mark.parametrize("scaler_cls", [StandardScaler, MinMaxScaler])
@pytest.mark.parametrize("width", [1, 2, 4])
def test_inverse_transform_rejects_wrong_width(scaler_cls, width):
    """An ``(n, 1)`` batch used to broadcast against the fitted columns silently."""
    scaler = scaler_cls().fit(np.random.default_rng(3).normal(size=(10, 3)))
    with pytest.raises(ValueError, match="X has .* features, scaler was fitted with 3"):
        scaler.inverse_transform(np.ones((5, width)))
