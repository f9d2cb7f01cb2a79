"""Continual Feature Extractor (CFE): the autoencoder trained with the CND loss.

Per experience the CFE optimises ``L_CND = L_CS + lambda_R L_R + lambda_CL L_CL``
(paper Eq. 1).  The gradient of each term is combined at the latent embedding
and propagated through the encoder once per batch:

* the reconstruction gradient flows decoder -> latent,
* the cluster-separation (triplet) gradient is computed directly on the latent,
* the continual-learning gradient pulls the latent towards the embeddings of
  the frozen models from previous experiences.

After every experience a frozen snapshot of the model is stored; no data is
retained, matching the paper's storage argument.
"""

from __future__ import annotations

import numpy as np

from repro.core.losses import CNDLossConfig
from repro.nn.data import batch_iterator
from repro.nn.losses import MSELoss, TripletMarginLoss
from repro.nn.models import Autoencoder
from repro.nn.optim import Adam
from repro.utils.random import check_random_state
from repro.utils.validation import check_array, check_consistent_length

__all__ = ["ContinualFeatureExtractor"]


class ContinualFeatureExtractor:
    """Autoencoder feature extractor updated continually with the CND loss.

    Parameters
    ----------
    input_dim:
        Number of input features.
    latent_dim, hidden_dims:
        Architecture of the MLP autoencoder (the paper uses a 4-layer MLP with
        256-unit hidden layers).
    loss_config:
        Weights and ablation switches of the composite loss.
    epochs, batch_size, learning_rate:
        Adam training schedule per experience (lr = 0.001 in the paper).
    max_snapshots:
        Upper bound on stored past-model snapshots used by ``L_CL``.
    """

    def __init__(
        self,
        input_dim: int,
        *,
        latent_dim: int = 64,
        hidden_dims: tuple[int, ...] = (256,),
        loss_config: CNDLossConfig | None = None,
        epochs: int = 10,
        batch_size: int = 128,
        learning_rate: float = 1e-3,
        max_snapshots: int = 10,
        random_state: int | np.random.Generator | None = 0,
    ) -> None:
        if input_dim < 1:
            raise ValueError("input_dim must be positive")
        if epochs < 1 or batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if max_snapshots < 1:
            raise ValueError("max_snapshots must be at least 1")
        self.input_dim = input_dim
        self.latent_dim = latent_dim
        self.hidden_dims = tuple(hidden_dims)
        self.loss_config = loss_config or CNDLossConfig()
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.max_snapshots = max_snapshots
        self._rng = check_random_state(random_state)

        self.autoencoder = Autoencoder(
            input_dim,
            latent_dim=latent_dim,
            hidden_dims=hidden_dims,
            random_state=self._rng,
        )
        self._past_models: list[Autoencoder] = []
        self._mse = MSELoss()
        self._triplet = TripletMarginLoss(
            margin=self.loss_config.margin, random_state=self._rng
        )
        self.experience_count = 0
        self.training_losses_: list[list[float]] = []

    # -- public API ----------------------------------------------------------
    @property
    def n_past_models(self) -> int:
        """Number of stored frozen snapshots from previous experiences."""
        return len(self._past_models)

    def encode(self, X: np.ndarray) -> np.ndarray:
        """Embed (already scaled) inputs with the current encoder, in eval mode."""
        X = check_array(X, name="X", allow_empty=True)
        if self.autoencoder.training:
            self.autoencoder.eval()
        if X.shape[0] == 0:
            return np.empty((0, self.latent_dim))
        return self.autoencoder.encode(X)

    def fit_experience(self, X_train: np.ndarray, pseudo_labels: np.ndarray) -> list[float]:
        """Train the CFE on one experience and snapshot the resulting model.

        Parameters
        ----------
        X_train:
            Scaled, unlabeled training data of the experience.
        pseudo_labels:
            Binary pseudo-labels from :func:`repro.core.losses.compute_pseudo_labels`
            (ignored when the cluster-separation term is disabled).

        Returns
        -------
        list of float
            Mean composite-loss value per epoch.

        Notes
        -----
        The ``L_CL`` targets, each past snapshot's embedding of ``X_train``,
        are encoded once per experience (in ``batch_size``-row chunks) and
        batched alongside the data.  That holds n_past x n_train x latent_dim
        float64 for the experience: ~1.4 MB per past model at perfbench's
        0.02 data scale, ~67 MB at paper-scale X-IIoTID.  A row's target is
        bit for bit what encoding its training batch gives, except in a
        one-row final batch: NumPy encodes a lone row with a matrix-vector
        product, which may differ in the last bit.
        """
        X_train = check_array(X_train, name="X_train")
        pseudo_labels = np.asarray(pseudo_labels)
        check_consistent_length(X_train, pseudo_labels)

        past_latents = [
            self._encode_chunked(past, X_train) for past in self._continual_targets()
        ]
        optimizer = Adam(self.autoencoder.parameters(), lr=self.learning_rate)
        epoch_losses: list[float] = []
        self.autoencoder.train()
        for _ in range(self.epochs):
            total = 0.0
            n_batches = 0
            for batch_x, batch_labels, *batch_past in batch_iterator(
                X_train,
                pseudo_labels,
                *past_latents,
                batch_size=self.batch_size,
                random_state=self._rng,
            ):
                total += self._train_step(batch_x, batch_labels, batch_past, optimizer)
                n_batches += 1
            epoch_losses.append(total / max(n_batches, 1))
        self.autoencoder.eval()

        self._store_snapshot()
        self.experience_count += 1
        self.training_losses_.append(epoch_losses)
        return epoch_losses

    # -- internals -------------------------------------------------------------
    def _continual_targets(self) -> list[Autoencoder]:
        """Past snapshots whose embeddings ``L_CL`` pulls the latent towards."""
        config = self.loss_config
        if config.use_continual and config.lambda_cl > 0:
            return self._past_models
        return []

    def _encode_chunked(self, model: Autoencoder, X: np.ndarray) -> np.ndarray:
        # batch_size-row chunks run the matmul shapes of training.  One
        # full-width call would take OpenBLAS's threaded path with a far
        # larger working set.
        return np.concatenate(
            [model.encode(X[start : start + self.batch_size])
             for start in range(0, X.shape[0], self.batch_size)]
        )

    def _train_step(
        self,
        batch_x: np.ndarray,
        batch_labels: np.ndarray,
        batch_past: list[np.ndarray],
        optimizer: Adam,
    ) -> float:
        config = self.loss_config
        self.autoencoder.zero_grad()
        latent = self.autoencoder.encode(batch_x)
        grad_latent = np.zeros_like(latent)
        loss_value = 0.0

        # Reconstruction loss: backprop lambda_R-scaled gradient through the
        # decoder (filling the decoder parameter gradients) down to the latent.
        if config.use_reconstruction and config.lambda_r > 0:
            reconstruction = self.autoencoder.decode(latent)
            value, grad_reconstruction = self._mse(reconstruction, batch_x)
            loss_value += config.lambda_r * value
            grad_latent += self.autoencoder.backward_through_decoder(
                config.lambda_r * grad_reconstruction
            )

        # Cluster-separation triplet loss on the latent embedding.
        if config.use_cluster_separation:
            value, grad_cs = self._triplet(latent, batch_labels)
            loss_value += value
            grad_latent += grad_cs

        # Continual-learning latent regularisation against every past model's
        # embedding of this batch.
        for past_latent in batch_past:
            value, grad_cl = self._mse(latent, past_latent)
            loss_value += config.lambda_cl * value
            grad_latent += config.lambda_cl * grad_cl

        self.autoencoder.backward_through_encoder(grad_latent)
        optimizer.step()
        return loss_value

    def _store_snapshot(self) -> None:
        self._past_models.append(self.autoencoder.clone())
        if len(self._past_models) > self.max_snapshots:
            self._past_models.pop(0)
