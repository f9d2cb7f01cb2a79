"""Feature scaling transformers."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_array, check_fitted, check_n_features

__all__ = ["StandardScaler", "MinMaxScaler"]


class StandardScaler:
    """Standardise features to zero mean and unit variance.

    Constant features (zero variance) are left centred but not scaled to avoid
    division by zero, matching the common library behaviour.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = check_array(X, name="X")
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        self.scale_ = std
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "mean_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.mean_.shape[0], fitted_with="scaler was fitted")
        return self._standardise(X)

    def _standardise(self, X: np.ndarray) -> np.ndarray:
        """``(X - mean_) / scale_`` of checked rows, into one new array."""
        out = X - self.mean_
        out /= self.scale_
        return out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "mean_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.mean_.shape[0], fitted_with="scaler was fitted")
        return X * self.scale_ + self.mean_


class MinMaxScaler:
    """Scale features to the ``[0, 1]`` range based on training minima and maxima."""

    def __init__(self) -> None:
        self.min_: np.ndarray | None = None
        self.range_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "MinMaxScaler":
        X = check_array(X, name="X")
        self.min_ = X.min(axis=0)
        data_range = X.max(axis=0) - self.min_
        data_range[data_range == 0.0] = 1.0
        self.range_ = data_range
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "min_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.min_.shape[0], fitted_with="scaler was fitted")
        return (X - self.min_) / self.range_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "min_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.min_.shape[0], fitted_with="scaler was fitted")
        return X * self.range_ + self.min_
