"""Unsupervised continual-learning (UCL) baselines: ADCN and LwF.

The paper compares CND-IDS against two SOTA UCL algorithms:

* **ADCN** (Ashfahani & Pratama, 2023) — an autonomous deep clustering
  network: an autoencoder whose latent space is partitioned into an evolving
  set of clusters; new clusters are spawned when incoming data is far from
  every existing cluster.  Classification assigns a sample to the nearest
  cluster and returns that cluster's label.
* **LwF** — an autoencoder + K-Means classifier regularised with a Learning
  without Forgetting (Li & Hoiem, 2018) distillation term: when training on a
  new experience the model is additionally penalised for deviating from the
  frozen previous model's outputs.

Both methods need a small amount of *labeled* normal and attack data to map
clusters to classes (exactly as noted in the paper, Sec. IV-A); they treat
normal and attack data symmetrically, which is the structural weakness
CND-IDS exploits.
"""

from __future__ import annotations

import numpy as np

from repro.continual.base import ContinualMethod
from repro.ml.distances import pairwise_euclidean, pairwise_topk
from repro.ml.kmeans import KMeans
from repro.ml.scalers import StandardScaler
from repro.nn.data import batch_iterator
from repro.nn.losses import MSELoss
from repro.nn.models import Autoencoder
from repro.nn.optim import Adam
from repro.utils.random import check_random_state
from repro.utils.validation import check_array

__all__ = ["ADCN", "LwF"]


class _LatentClusterBaseline(ContinualMethod):
    """Shared machinery: an autoencoder feature space plus labeled latent clusters."""

    supports_scores = False
    requires_labels = True

    def __init__(
        self,
        input_dim: int,
        *,
        latent_dim: int | None = None,
        hidden_dims: tuple[int, ...] = (256,),
        n_clusters: int = 8,
        epochs: int = 10,
        batch_size: int = 128,
        learning_rate: float = 1e-3,
        random_state: int | None = 0,
    ) -> None:
        if input_dim < 1:
            raise ValueError("input_dim must be positive")
        if n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        if latent_dim is None:
            # Same default embedding width as CND-IDS so the comparison is fair.
            latent_dim = max(64, input_dim)
        self.input_dim = input_dim
        self.latent_dim = latent_dim
        self.hidden_dims = tuple(hidden_dims)
        self.n_clusters = n_clusters
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.random_state = random_state
        self._rng = check_random_state(random_state)

        self.autoencoder = Autoencoder(
            input_dim,
            latent_dim=latent_dim,
            hidden_dims=hidden_dims,
            random_state=random_state,
        )
        self.scaler = StandardScaler()
        self._scaler_fitted = False
        self.cluster_centers_: np.ndarray | None = None
        self.cluster_labels_: np.ndarray | None = None
        self.experience_count = 0
        self._mse = MSELoss()

    # -- scaling / encoding -----------------------------------------------------
    def _prepare(self, X: np.ndarray, *, fit_scaler: bool) -> np.ndarray:
        X = check_array(X, name="X")
        if fit_scaler and not self._scaler_fitted:
            self.scaler.fit(X)
            self._scaler_fitted = True
        return self.scaler.transform(X)

    def _encode(self, X_scaled: np.ndarray) -> np.ndarray:
        self.autoencoder.eval()
        return self.autoencoder.encode(X_scaled)

    # -- cluster labelling ----------------------------------------------------------
    def _label_clusters(
        self, calibration_X: np.ndarray | None, calibration_y: np.ndarray | None
    ) -> None:
        """Assign a binary label to every cluster by majority vote of the calibration set."""
        if self.cluster_centers_ is None:
            return
        n_clusters = self.cluster_centers_.shape[0]
        labels = np.zeros(n_clusters, dtype=np.int64)
        if calibration_X is not None and calibration_y is not None and calibration_X.shape[0]:
            X_scaled = self.scaler.transform(np.asarray(calibration_X, dtype=np.float64))
            latent = self._encode(X_scaled)
            assignment = pairwise_topk(latent, self.cluster_centers_, 1)[0][:, 0]
            y = np.asarray(calibration_y)
            for cluster in range(n_clusters):
                members = y[assignment == cluster]
                if members.size:
                    labels[cluster] = int(round(members.mean()))
                else:
                    labels[cluster] = int(round(y.mean()))
        self.cluster_labels_ = labels

    # -- prediction ----------------------------------------------------------------
    def predict(self, X: np.ndarray, y_true: np.ndarray | None = None) -> np.ndarray:
        if self.cluster_centers_ is None or self.cluster_labels_ is None:
            raise RuntimeError(f"{self.name} has not been fitted on any experience yet")
        X_scaled = self._prepare(X, fit_scaler=False)
        latent = self._encode(X_scaled)
        assignment = pairwise_topk(latent, self.cluster_centers_, 1)[0][:, 0]
        return self.cluster_labels_[assignment]


class ADCN(_LatentClusterBaseline):
    """Autonomous Deep Clustering Network baseline.

    Per experience the autoencoder is refined with a plain reconstruction
    loss, the training data is encoded, and the latent cluster set *evolves*:
    points far from every existing cluster spawn new clusters (K-Means over
    the unexplained points), close points update the matched cluster centres.
    No explicit anti-forgetting regularisation is applied, so earlier clusters
    gradually go stale as the latent space drifts — the behaviour the paper's
    BwdTrans/FwdTrans numbers reflect.
    """

    def __init__(
        self,
        input_dim: int,
        *,
        novelty_factor: float = 2.0,
        max_clusters: int = 64,
        **kwargs: object,
    ) -> None:
        super().__init__(input_dim, **kwargs)
        if novelty_factor <= 0:
            raise ValueError("novelty_factor must be positive")
        self.novelty_factor = novelty_factor
        self.max_clusters = max_clusters

    def _train_autoencoder(self, X_scaled: np.ndarray) -> None:
        optimizer = Adam(self.autoencoder.parameters(), lr=self.learning_rate)
        self.autoencoder.train()
        for _ in range(self.epochs):
            for (batch,) in batch_iterator(
                X_scaled, batch_size=self.batch_size, random_state=self._rng
            ):
                reconstruction = self.autoencoder(batch)
                _, grad = self._mse(reconstruction, batch)
                self.autoencoder.zero_grad()
                self.autoencoder.backward(grad)
                optimizer.step()
        self.autoencoder.eval()

    def _evolve_clusters(self, latent: np.ndarray) -> None:
        if self.cluster_centers_ is None:
            n_clusters = min(self.n_clusters, latent.shape[0])
            kmeans = KMeans(n_clusters=n_clusters, random_state=self._rng).fit(latent)
            self.cluster_centers_ = kmeans.cluster_centers_
            return
        distances = pairwise_euclidean(latent, self.cluster_centers_)
        nearest = distances.min(axis=1)
        assignment = distances.argmin(axis=1)
        scale = np.median(nearest) + 1e-12
        explained = nearest <= self.novelty_factor * scale

        # Update matched centres with the mean of their newly assigned points.
        for cluster in np.unique(assignment[explained]):
            members = latent[explained & (assignment == cluster)]
            if members.shape[0]:
                self.cluster_centers_[cluster] = (
                    0.5 * self.cluster_centers_[cluster] + 0.5 * members.mean(axis=0)
                )

        unexplained = latent[~explained]
        room = self.max_clusters - self.cluster_centers_.shape[0]
        if unexplained.shape[0] >= 2 and room > 0:
            n_new = int(min(room, max(1, self.n_clusters // 2), unexplained.shape[0]))
            kmeans = KMeans(n_clusters=n_new, random_state=self._rng).fit(unexplained)
            self.cluster_centers_ = np.vstack(
                [self.cluster_centers_, kmeans.cluster_centers_]
            )

    def fit_experience(
        self,
        X_train: np.ndarray,
        *,
        calibration_X: np.ndarray | None = None,
        calibration_y: np.ndarray | None = None,
    ) -> None:
        X_scaled = self._prepare(X_train, fit_scaler=True)
        self._train_autoencoder(X_scaled)
        latent = self._encode(X_scaled)
        self._evolve_clusters(latent)
        self._label_clusters(calibration_X, calibration_y)
        self.experience_count += 1


class LwF(_LatentClusterBaseline):
    """Autoencoder + K-Means with Learning-without-Forgetting distillation.

    From the second experience on, the training loss adds a distillation term
    ``lambda_lwf * MSE(model(x), old_model(x))`` against a frozen copy of the
    previous-experience model.  Clusters are re-fitted on the current
    experience's latent representation and labeled with the calibration set.
    """

    def __init__(
        self,
        input_dim: int,
        *,
        lambda_lwf: float = 1.0,
        **kwargs: object,
    ) -> None:
        super().__init__(input_dim, **kwargs)
        if lambda_lwf < 0:
            raise ValueError("lambda_lwf must be non-negative")
        self.lambda_lwf = lambda_lwf
        self._previous_model: Autoencoder | None = None

    def _train_autoencoder(self, X_scaled: np.ndarray) -> None:
        optimizer = Adam(self.autoencoder.parameters(), lr=self.learning_rate)
        self.autoencoder.train()
        for _ in range(self.epochs):
            for (batch,) in batch_iterator(
                X_scaled, batch_size=self.batch_size, random_state=self._rng
            ):
                reconstruction = self.autoencoder(batch)
                _, grad = self._mse(reconstruction, batch)
                if self._previous_model is not None and self.lambda_lwf > 0:
                    old_output = self._previous_model(batch)
                    _, distill_grad = self._mse(reconstruction, old_output)
                    grad = grad + self.lambda_lwf * distill_grad
                self.autoencoder.zero_grad()
                self.autoencoder.backward(grad)
                optimizer.step()
        self.autoencoder.eval()

    def fit_experience(
        self,
        X_train: np.ndarray,
        *,
        calibration_X: np.ndarray | None = None,
        calibration_y: np.ndarray | None = None,
    ) -> None:
        X_scaled = self._prepare(X_train, fit_scaler=True)
        self._train_autoencoder(X_scaled)
        latent = self._encode(X_scaled)
        n_clusters = min(self.n_clusters, latent.shape[0])
        kmeans = KMeans(n_clusters=n_clusters, random_state=self._rng).fit(latent)
        self.cluster_centers_ = kmeans.cluster_centers_
        self._label_clusters(calibration_X, calibration_y)
        self._previous_model = self.autoencoder.clone()
        self.experience_count += 1
