"""PCA tests: component selection, reconstruction, invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ml import PCA


def _low_rank_data(n: int = 200, d: int = 10, rank: int = 3, noise: float = 0.0, seed: int = 0):
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(rank, d))
    coefficients = rng.normal(size=(n, rank))
    X = coefficients @ basis
    if noise:
        X = X + noise * rng.normal(size=X.shape)
    return X


class TestPCAFit:
    def test_explained_variance_ratio_sums_to_at_most_one(self):
        pca = PCA().fit(np.random.default_rng(0).normal(size=(50, 6)))
        assert pca.explained_variance_ratio_.sum() <= 1.0 + 1e-9

    def test_components_are_orthonormal(self):
        pca = PCA().fit(np.random.default_rng(1).normal(size=(100, 8)))
        gram = pca.components_ @ pca.components_.T
        np.testing.assert_allclose(gram, np.eye(pca.n_components_), atol=1e-8)

    def test_integer_n_components(self):
        pca = PCA(n_components=3).fit(np.random.default_rng(0).normal(size=(40, 10)))
        assert pca.n_components_ == 3
        assert pca.components_.shape == (3, 10)

    def test_integer_n_components_capped_at_rank(self):
        pca = PCA(n_components=50).fit(np.random.default_rng(0).normal(size=(10, 5)))
        assert pca.n_components_ == 5

    def test_float_n_components_selects_by_variance(self):
        X = _low_rank_data(rank=3, noise=0.01)
        pca = PCA(n_components=0.95).fit(X)
        # 3 latent directions carry nearly all the variance.
        assert pca.n_components_ <= 4

    def test_float_n_components_one_keeps_almost_everything(self):
        X = np.random.default_rng(2).normal(size=(30, 6))
        pca = PCA(n_components=0.999999).fit(X)
        assert pca.n_components_ >= 5

    def test_invalid_float_raises(self):
        with pytest.raises(ValueError):
            PCA(n_components=1.5)

    def test_invalid_int_raises(self):
        with pytest.raises(ValueError):
            PCA(n_components=0)

    def test_constant_data_handled(self):
        pca = PCA().fit(np.ones((20, 4)))
        errors = pca.reconstruction_error(np.ones((5, 4)))
        np.testing.assert_allclose(errors, 0.0, atol=1e-18)


class TestPCATransform:
    def test_transform_shape(self):
        X = np.random.default_rng(0).normal(size=(30, 8))
        pca = PCA(n_components=4).fit(X)
        assert pca.transform(X).shape == (30, 4)

    def test_full_rank_reconstruction_is_exact(self):
        X = np.random.default_rng(3).normal(size=(25, 5))
        pca = PCA().fit(X)
        reconstructed = pca.inverse_transform(pca.transform(X))
        np.testing.assert_allclose(reconstructed, X, atol=1e-9)

    def test_low_rank_data_reconstructs_exactly_with_rank_components(self):
        X = _low_rank_data(rank=3)
        pca = PCA(n_components=3).fit(X)
        np.testing.assert_allclose(pca.reconstruction_error(X), 0.0, atol=1e-14)

    def test_off_subspace_points_have_higher_error(self):
        X = _low_rank_data(rank=3, noise=0.01)
        pca = PCA(n_components=3).fit(X)
        inlier_error = pca.reconstruction_error(X).mean()
        outliers = X + 5.0 * np.random.default_rng(0).normal(size=X.shape)
        outlier_error = pca.reconstruction_error(outliers).mean()
        assert outlier_error > 10 * inlier_error

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PCA().transform(np.zeros((3, 3)))

    def test_whiten_gives_unit_variance_projections(self):
        X = np.random.default_rng(4).normal(size=(500, 6)) * np.array([10, 5, 3, 1, 0.5, 0.1])
        pca = PCA(n_components=3, whiten=True).fit(X)
        Z = pca.transform(X)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=0.05)

    def test_whiten_inverse_transform_roundtrip(self):
        X = np.random.default_rng(5).normal(size=(60, 5))
        pca = PCA(whiten=True).fit(X)
        np.testing.assert_allclose(pca.inverse_transform(pca.transform(X)), X, atol=1e-8)

    @given(st.integers(5, 40), st.integers(2, 8))
    def test_reconstruction_error_nonnegative(self, n, d):
        X = np.random.default_rng(n * 7 + d).normal(size=(n, d))
        pca = PCA(n_components=0.9).fit(X)
        assert np.all(pca.reconstruction_error(X) >= 0.0)


class TestReconstructionErrorMatchesRoundTrip:
    """The one-pass residual agrees with ``X - inverse_transform(transform(X))``."""

    @pytest.mark.parametrize("whiten", [False, True])
    @pytest.mark.parametrize("n_components", [None, 4, 0.8])
    def test_matches_round_trip_formula(self, whiten, n_components):
        rng = np.random.default_rng(6)
        scale = np.arange(1, 13)
        # Fewer fit rows than features, so even n_components=None leaves a
        # residual for fresh points.
        pca = PCA(n_components, whiten=whiten).fit(rng.normal(size=(10, 12)) * scale)
        X = rng.normal(size=(200, 12)) * scale
        reference = ((X - pca.inverse_transform(pca.transform(X))) ** 2).sum(axis=1)
        np.testing.assert_allclose(pca.reconstruction_error(X), reference, rtol=1e-12)

    def test_does_not_modify_input(self):
        X = np.random.default_rng(7).normal(size=(30, 5))
        pca = PCA(n_components=2).fit(X)
        before = X.copy()
        pca.reconstruction_error(X)
        np.testing.assert_array_equal(X, before)


class TestWrongWidthInput:
    """A batch narrower or wider than the fitted width raises instead of broadcasting."""

    @pytest.fixture
    def pca(self):
        return PCA(n_components=2).fit(np.random.default_rng(8).normal(size=(30, 4)))

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_transform(self, pca, width):
        with pytest.raises(ValueError, match="X has .* features, PCA was fitted with 4"):
            pca.transform(np.ones((6, width)))

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_reconstruction_error(self, pca, width):
        with pytest.raises(ValueError, match="X has .* features, PCA was fitted with 4"):
            pca.reconstruction_error(np.ones((6, width)))

    @pytest.mark.parametrize("width", [1, 3, 4])
    def test_inverse_transform_checks_against_n_components(self, pca, width):
        with pytest.raises(ValueError, match="features, PCA was fitted with 2"):
            pca.inverse_transform(np.ones((6, width)))
