"""One-class SVM with an RBF kernel approximated by random Fourier features.

The exact kernel OC-SVM requires a quadratic-programming solver; with the
training sizes used in the experiments a widely adopted approximation is
sufficient and much faster: map the inputs with random Fourier features
(Rahimi & Recht, 2007) and solve the *linear* one-class SVM primal

``min_w,rho  1/2 ||w||^2 + 1/(nu * n) * sum_i max(0, rho - w.z_i) - rho``

by stochastic subgradient descent (the same formulation as scikit-learn's
``SGDOneClassSVM``).  The anomaly score is ``rho - w.z(x)`` so that larger
values are more anomalous.
"""

from __future__ import annotations

import numpy as np

from repro.novelty.base import NoveltyDetector
from repro.utils.random import check_random_state
from repro.utils.validation import check_array, check_fitted, check_n_features

__all__ = ["OneClassSVM"]


class OneClassSVM(NoveltyDetector):
    """Approximate RBF one-class SVM.

    Parameters
    ----------
    nu:
        Upper bound on the fraction of training errors / lower bound on the
        fraction of support vectors, in (0, 1].
    gamma:
        RBF kernel width; ``"scale"`` uses ``1 / (n_features * var(X))``.
    n_features_rff:
        Number of random Fourier features used for the kernel approximation.
    n_epochs, learning_rate, batch_size:
        Subgradient-descent schedule for the linear primal problem.
    block_size:
        Scoring (and the per-minibatch training transforms) materialise the
        random-feature map for at most this many rows at a time, so peak
        extra memory is O(``block_size`` x ``n_features_rff``) floats instead
        of the full n_samples x ``n_features_rff`` matrix — the same bound
        the blockwise neighbour kernel gives LOF.
    """

    def __init__(
        self,
        nu: float = 0.1,
        gamma: float | str = "scale",
        *,
        n_features_rff: int = 256,
        n_epochs: int = 30,
        learning_rate: float = 0.01,
        batch_size: int = 128,
        block_size: int = 4096,
        threshold_quantile: float = 0.95,
        random_state: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(threshold_quantile=threshold_quantile)
        if not 0.0 < nu <= 1.0:
            raise ValueError("nu must be in (0, 1]")
        if isinstance(gamma, str) and gamma != "scale":
            raise ValueError("gamma must be a positive float or 'scale'")
        if not isinstance(gamma, str) and gamma <= 0:
            raise ValueError("gamma must be positive")
        if n_features_rff < 1:
            raise ValueError("n_features_rff must be at least 1")
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        self.nu = nu
        self.gamma = gamma
        self.n_features_rff = n_features_rff
        self.n_epochs = n_epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.block_size = block_size
        self.random_state = random_state
        self.weights_: np.ndarray | None = None
        self.rho_: float | None = None
        self._rff_directions: np.ndarray | None = None
        self._rff_offsets: np.ndarray | None = None

    # -- random Fourier features --------------------------------------------
    def _resolve_gamma(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            var = float(X.var())
            if var <= 0.0:
                var = 1.0
            return 1.0 / (X.shape[1] * var)
        return float(self.gamma)

    def _init_rff(self, X: np.ndarray, rng: np.random.Generator) -> None:
        gamma = self._resolve_gamma(X)
        self._rff_directions = rng.normal(
            0.0, np.sqrt(2.0 * gamma), size=(X.shape[1], self.n_features_rff)
        )
        self._rff_offsets = rng.uniform(0.0, 2.0 * np.pi, size=self.n_features_rff)

    def _transform(self, X: np.ndarray) -> np.ndarray:
        projection = X @ self._rff_directions + self._rff_offsets
        return np.sqrt(2.0 / self.n_features_rff) * np.cos(projection)

    # -- fitting --------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "OneClassSVM":
        X = check_array(X, name="X")
        rng = check_random_state(self.random_state)
        self._init_rff(X, rng)
        n = X.shape[0]

        w = np.zeros(self.n_features_rff)
        rho = 0.0
        lr = self.learning_rate
        for epoch in range(self.n_epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                # Map only the minibatch rows: peak feature-map memory is
                # O(batch_size x n_features_rff) instead of the full matrix.
                batch = self._transform(X[order[start : start + self.batch_size]])
                margins = rho - batch @ w
                violating = margins > 0.0
                frac = violating.mean() if batch.shape[0] else 0.0
                # Subgradients of the primal objective.
                grad_w = w - (1.0 / self.nu) * violating.astype(np.float64) @ batch / max(
                    batch.shape[0], 1
                )
                grad_rho = (1.0 / self.nu) * frac - 1.0
                w -= lr * grad_w
                rho -= lr * grad_rho
            lr = self.learning_rate / (1.0 + 0.1 * (epoch + 1))
        self.weights_ = w
        self.rho_ = float(rho)
        self._set_default_threshold(self.score_samples(X))
        return self

    # -- scoring ---------------------------------------------------------------
    def score_samples(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "weights_")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self._rff_directions.shape[0], fitted_with="detector was fitted")
        n = X.shape[0]
        if n == 0:
            return np.empty(0)
        # Blockwise feature map: rows are independent, so mapping and scoring
        # block_size rows at a time bounds peak memory without changing the
        # result.  The per-row reduction (not a gemv, whose summation order
        # depends on the block's length) keeps each row's score independent
        # of the block it lands in.
        scores = np.empty(n)
        for start in range(0, n, self.block_size):
            stop = min(start + self.block_size, n)
            features = self._transform(X[start:stop])
            scores[start:stop] = self.rho_ - (features * self.weights_).sum(axis=1)
        return scores
