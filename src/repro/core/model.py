"""CND-IDS: Continual Novelty Detection for Intrusion Detection Systems.

This module implements Algorithm 1 of the paper.  Per training experience:

1. fit the Continual Feature Extractor (CFE) on the unlabeled training data
   with the CND loss,
2. encode the clean normal set ``N_c`` with the CFE,
3. fit the PCA novelty detector on the encoded ``N_c``.

At test time a batch is encoded with the CFE, scored with the PCA feature
reconstruction error, thresholded (Best-F by default), and the resulting
binary predictions are compared against the ground truth.
"""

from __future__ import annotations

import numpy as np

from repro.continual.base import ContinualMethod
from repro.continual.scenario import ContinualScenario
from repro.core.cfe import ContinualFeatureExtractor
from repro.core.losses import CNDLossConfig, compute_pseudo_labels
from repro.core.thresholding import (
    BestFThresholding,
    QuantileThresholding,
    ThresholdingStrategy,
)
from repro.ml.pca import PCA
from repro.ml.scalers import StandardScaler
from repro.utils.random import check_random_state
from repro.utils.validation import check_array, check_n_features

__all__ = ["CNDIDS"]


class CNDIDS(ContinualMethod):
    """The CND-IDS continual novelty-detection intrusion detector.

    Parameters
    ----------
    input_dim:
        Number of input features.
    latent_dim, hidden_dims:
        Architecture of the CFE autoencoder (paper: 4-layer MLP, 256 hidden
        units).  ``latent_dim=None`` (default) uses ``max(64, input_dim)``.
    loss_config:
        Weights / ablation switches of the CND loss (paper defaults when omitted).
    n_clusters:
        Number of K-Means clusters for pseudo-labelling; ``None`` uses the
        elbow method as in the paper.
    pca_variance:
        Explained-variance ratio kept by the PCA novelty detector (0.95).
    thresholding:
        A :class:`~repro.core.thresholding.ThresholdingStrategy`; defaults to
        Best-F as used in the paper.
    epochs, batch_size, learning_rate:
        CFE training schedule per experience.
    max_clean_normal:
        The clean normal set is subsampled to at most this many points before
        encoding / PCA fitting to bound cost on large datasets.
    clean_normal_update_fraction:
        Extension beyond the paper (inspired by incDFM's pseudo-labelling):
        after each experience, this fraction of the experience's training
        samples with the *lowest* anomaly scores is added to the clean normal
        pool, letting the novelty detector follow benign-traffic drift.  The
        default 0.0 reproduces the paper exactly (``N_c`` stays fixed).
    """

    supports_scores = True
    requires_labels = False

    def __init__(
        self,
        input_dim: int,
        *,
        latent_dim: int | None = None,
        hidden_dims: tuple[int, ...] = (256,),
        loss_config: CNDLossConfig | None = None,
        n_clusters: int | None = None,
        pca_variance: float | int | None = 0.95,
        thresholding: ThresholdingStrategy | None = None,
        epochs: int = 10,
        batch_size: int = 128,
        learning_rate: float = 1e-3,
        max_clean_normal: int | None = 5000,
        clean_normal_update_fraction: float = 0.0,
        random_state: int | np.random.Generator | None = 0,
    ) -> None:
        if input_dim < 1:
            raise ValueError("input_dim must be positive")
        if not 0.0 <= clean_normal_update_fraction < 1.0:
            raise ValueError("clean_normal_update_fraction must be in [0, 1)")
        if latent_dim is None:
            # Keep the embedding at least as wide as the input so the encoder
            # does not have to discard information before the PCA stage.
            latent_dim = max(64, input_dim)
        self.input_dim = input_dim
        self.loss_config = loss_config or CNDLossConfig()
        self.n_clusters = n_clusters
        self.pca_variance = pca_variance
        self.thresholding = thresholding or BestFThresholding()
        self.max_clean_normal = max_clean_normal
        self.clean_normal_update_fraction = clean_normal_update_fraction
        self._rng = check_random_state(random_state)

        self.cfe = ContinualFeatureExtractor(
            input_dim,
            latent_dim=latent_dim,
            hidden_dims=hidden_dims,
            loss_config=self.loss_config,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            random_state=self._rng,
        )
        self.scaler = StandardScaler()
        self.clean_normal_: np.ndarray | None = None
        self.pca_: PCA | None = None
        self._clean_scores: np.ndarray | None = None
        self.experience_count = 0

    # -- lifecycle -------------------------------------------------------------
    @property
    def name(self) -> str:
        return "CND-IDS"

    def setup(self, clean_normal: np.ndarray) -> None:
        """Receive the clean normal reference set ``N_c`` and fit the feature scaler."""
        clean_normal = check_array(clean_normal, name="clean_normal")
        if clean_normal.shape[1] != self.input_dim:
            raise ValueError(
                f"clean_normal has {clean_normal.shape[1]} features, expected {self.input_dim}"
            )
        if (
            self.max_clean_normal is not None
            and clean_normal.shape[0] > self.max_clean_normal
        ):
            idx = self._rng.choice(
                clean_normal.shape[0], self.max_clean_normal, replace=False
            )
            clean_normal = clean_normal[idx]
        self.scaler.fit(clean_normal)
        self.clean_normal_ = self.scaler.transform(clean_normal)

    # -- Algorithm 1, training steps -------------------------------------------------
    def fit_experience(
        self,
        X_train: np.ndarray,
        *,
        calibration_X: np.ndarray | None = None,
        calibration_y: np.ndarray | None = None,
    ) -> None:
        """Train on one experience: CFE update, encode ``N_c``, refit the PCA detector.

        ``calibration_X`` / ``calibration_y`` are accepted for interface
        compatibility but ignored — CND-IDS never uses labels for training.
        """
        if self.clean_normal_ is None:
            raise RuntimeError("setup(clean_normal) must be called before fit_experience")
        X_train = check_array(X_train, name="X_train")
        X_scaled = self.scaler.transform(X_train)

        if self.loss_config.use_cluster_separation:
            pseudo_labels, _ = compute_pseudo_labels(
                X_scaled,
                self.clean_normal_,
                n_clusters=self.n_clusters,
                random_state=self._rng,
            )
        else:
            pseudo_labels = np.zeros(X_scaled.shape[0], dtype=np.int64)

        self.cfe.fit_experience(X_scaled, pseudo_labels)
        self._refit_novelty_detector()
        if self.clean_normal_update_fraction > 0.0:
            self._update_clean_normal(X_scaled)
        self.experience_count += 1

    def _refit_novelty_detector(self) -> None:
        encoded_normal = self.cfe.encode(self.clean_normal_)
        self.pca_ = PCA(n_components=self.pca_variance).fit(encoded_normal)
        self._clean_scores = self.pca_.reconstruction_error(encoded_normal)

    def _update_clean_normal(self, X_scaled: np.ndarray) -> None:
        """Add the lowest-scoring (most normal-looking) training samples to ``N_c``.

        This is the label-free pool update described in the class docstring;
        the PCA detector is refitted afterwards so the augmented pool takes
        effect immediately.
        """
        encoded = self.cfe.encode(X_scaled)
        scores = self.pca_.reconstruction_error(encoded)
        n_add = int(self.clean_normal_update_fraction * X_scaled.shape[0])
        if n_add < 1:
            return
        lowest = np.argsort(scores)[:n_add]
        augmented = np.vstack([self.clean_normal_, X_scaled[lowest]])
        if self.max_clean_normal is not None and augmented.shape[0] > self.max_clean_normal:
            keep = self._rng.choice(augmented.shape[0], self.max_clean_normal, replace=False)
            augmented = augmented[keep]
        self.clean_normal_ = augmented
        self._refit_novelty_detector()

    # -- Algorithm 1, test steps ----------------------------------------------------
    def score_samples(self, X: np.ndarray) -> np.ndarray:
        """Anomaly score per sample: PCA feature reconstruction error of the CFE embedding.

        The scores are the same bits as
        ``pca_.reconstruction_error(cfe.encode(scaler.transform(X)))``, and
        every input that chain rejects raises the same ``ValueError``.  ``X``
        is checked once, here (shape, width, finite values), and standardised
        into one new array without the scaler's second check.  Two finite
        checks follow on arrays this call creates: ``cfe.encode`` checks the
        standardised rows, which overflow when a finite feature lies far
        outside the clean-normal spread, and the embedding is checked here
        (the check ``pca_.reconstruction_error`` makes) before its PCA
        residual is formed in place.  ``X`` is never written to, and no
        batch-sized array is kept.
        """
        if self.pca_ is None:
            raise RuntimeError("CND-IDS has not been fitted on any experience yet")
        X = check_array(X, name="X", allow_empty=True)
        check_n_features(X, self.input_dim, fitted_with="CND-IDS was built")
        if X.shape[0] == 0:
            return np.empty(0)
        encoded = check_array(self.cfe.encode(self.scaler._standardise(X)), name="X")
        # The embedding is this call's own array, so the residual is formed in it.
        return self.pca_._reconstruction_error(encoded, overwrite=True)

    def predict(self, X: np.ndarray, y_true: np.ndarray | None = None) -> np.ndarray:
        """Binary predictions via the configured thresholding strategy.

        When the strategy requires labels (Best-F) and none are supplied, the
        label-free quantile fallback on the clean-normal score distribution is
        used instead so the model remains usable in deployment.
        """
        scores = self.score_samples(X)
        strategy: ThresholdingStrategy = self.thresholding
        if strategy.requires_labels and y_true is None:
            strategy = QuantileThresholding()
        threshold = strategy.select(
            scores, y_true=y_true, reference_scores=self._clean_scores
        )
        return (scores > threshold).astype(np.int64)

    # -- convenience: run the whole protocol ------------------------------------------
    def run_scenario(self, scenario: ContinualScenario):
        """Run the full Algorithm-1 protocol on a scenario.

        Returns a :class:`repro.experiments.protocol.MethodRunResult`; imported
        lazily to avoid a circular dependency between the core and experiment
        layers.
        """
        from repro.experiments.protocol import run_continual_method

        return run_continual_method(self, scenario)
