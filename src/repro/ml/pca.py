"""Principal component analysis via singular value decomposition.

The paper's novelty detector fits PCA with components selected by explained
variance (95%) and scores samples by the feature reconstruction error of the
inverse transform.  Both behaviours are provided here.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_array, check_fitted, check_n_features

__all__ = ["PCA"]


class PCA:
    """PCA with integer or explained-variance-ratio component selection.

    Parameters
    ----------
    n_components:
        ``None`` keeps every component, an ``int`` keeps exactly that many,
        and a ``float`` in (0, 1) keeps the smallest number of components
        whose cumulative explained variance ratio reaches that value (the
        paper uses ``0.95``).
    whiten:
        Scale the projected components to unit variance.
    """

    def __init__(self, n_components: int | float | None = None, *, whiten: bool = False) -> None:
        if isinstance(n_components, float) and not 0.0 < n_components < 1.0:
            raise ValueError("a float n_components must lie strictly between 0 and 1")
        if isinstance(n_components, (int, np.integer)) and n_components < 1:
            raise ValueError("an integer n_components must be at least 1")
        self.n_components = n_components
        self.whiten = whiten
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None
        self.explained_variance_: np.ndarray | None = None
        self.explained_variance_ratio_: np.ndarray | None = None
        self.singular_values_: np.ndarray | None = None
        self.n_components_: int | None = None

    # -- fitting -----------------------------------------------------------
    def fit(self, X: np.ndarray) -> "PCA":
        X = check_array(X, name="X")
        n_samples, n_features = X.shape
        self.mean_ = X.mean(axis=0)
        centered = X - self.mean_
        # SVD of the centered data: rows of Vt are principal directions.
        _, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
        denominator = max(n_samples - 1, 1)
        explained_variance = (singular_values**2) / denominator
        total_variance = explained_variance.sum()
        if total_variance <= 0.0:
            ratio = np.zeros_like(explained_variance)
        else:
            ratio = explained_variance / total_variance

        max_rank = min(n_samples, n_features)
        n_components = self._resolve_n_components(ratio, max_rank)
        self.components_ = vt[:n_components]
        self.singular_values_ = singular_values[:n_components]
        self.explained_variance_ = explained_variance[:n_components]
        self.explained_variance_ratio_ = ratio[:n_components]
        self.n_components_ = n_components
        return self

    def _resolve_n_components(self, ratio: np.ndarray, max_rank: int) -> int:
        if self.n_components is None:
            return max_rank
        if isinstance(self.n_components, float):
            cumulative = np.cumsum(ratio)
            # Smallest k whose cumulative ratio reaches the requested level.
            reached = np.flatnonzero(cumulative >= self.n_components - 1e-12)
            if reached.size == 0:
                return max_rank
            return int(reached[0]) + 1
        return int(min(self.n_components, max_rank))

    # -- transforms ----------------------------------------------------------
    def transform(self, X: np.ndarray) -> np.ndarray:
        """Project samples onto the principal components."""
        check_fitted(self, "components_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.mean_.shape[0], fitted_with="PCA was fitted")
        projected = (X - self.mean_) @ self.components_.T
        if self.whiten:
            projected /= np.sqrt(self.explained_variance_ + 1e-12)
        return projected

    def inverse_transform(self, Z: np.ndarray) -> np.ndarray:
        """Map projected samples back to the original feature space."""
        check_fitted(self, "components_")
        Z = check_array(Z, name="Z", allow_empty=True)
        check_n_features(Z, self.n_components_, fitted_with="PCA was fitted")
        if self.whiten:
            Z = Z * np.sqrt(self.explained_variance_ + 1e-12)
        return Z @ self.components_ + self.mean_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def reconstruction_error(self, X: np.ndarray) -> np.ndarray:
        """Per-sample feature reconstruction error ``||x - T^-1(T(x))||^2``.

        This is the FRE anomaly score from the paper (Sec. III-D). The residual
        is computed in one pass as ``c - (c V^T) V`` with ``c = x - mean``. The
        whitening scale cancels between the two transforms, so this covers
        both settings and matches the round trip up to rounding.
        """
        check_fitted(self, "components_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.mean_.shape[0], fitted_with="PCA was fitted")
        return self._reconstruction_error(X)

    def _reconstruction_error(self, X: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
        """:meth:`reconstruction_error` of checked rows.

        With ``overwrite`` the residual is formed in ``X`` itself, which the
        caller must own; otherwise ``X`` is left as it is.
        """
        residual = np.subtract(X, self.mean_, out=X if overwrite else None)
        residual -= (residual @ self.components_.T) @ self.components_
        return np.einsum("ij,ij->i", residual, residual)
