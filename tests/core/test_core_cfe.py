"""Tests for the Continual Feature Extractor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CNDLossConfig, ContinualFeatureExtractor


def _separable_batch(seed: int = 0, shift: float = 0.0):
    rng = np.random.default_rng(seed)
    normal = rng.normal(0.0 + shift, 1.0, size=(150, 10))
    attack = rng.normal(5.0 + shift, 1.0, size=(60, 10))
    X = np.vstack([normal, attack])
    pseudo = np.array([0] * 150 + [1] * 60)
    return X, pseudo


class TestCFEBasics:
    def test_encode_shape(self):
        cfe = ContinualFeatureExtractor(10, latent_dim=6, hidden_dims=(16,), epochs=1, random_state=0)
        X, pseudo = _separable_batch()
        cfe.fit_experience(X, pseudo)
        assert cfe.encode(X).shape == (X.shape[0], 6)

    def test_empty_encode(self):
        cfe = ContinualFeatureExtractor(10, latent_dim=6, hidden_dims=(16,), epochs=1, random_state=0)
        assert cfe.encode(np.empty((0, 10))).shape == (0, 6)

    def test_training_loss_decreases(self):
        cfe = ContinualFeatureExtractor(10, latent_dim=6, hidden_dims=(32,), epochs=8, random_state=0)
        X, pseudo = _separable_batch()
        losses = cfe.fit_experience(X, pseudo)
        assert losses[-1] < losses[0]

    def test_snapshot_stored_per_experience(self):
        cfe = ContinualFeatureExtractor(10, latent_dim=4, hidden_dims=(16,), epochs=1, random_state=0)
        for seed in range(3):
            X, pseudo = _separable_batch(seed)
            cfe.fit_experience(X, pseudo)
        assert cfe.n_past_models == 3
        assert cfe.experience_count == 3

    def test_snapshots_keep_no_gradient_buffers(self):
        cfe = ContinualFeatureExtractor(10, latent_dim=4, hidden_dims=(16,), epochs=1, random_state=0)
        X, pseudo = _separable_batch()
        cfe.fit_experience(X, pseudo)
        (snapshot,) = cfe._past_models
        assert not snapshot.training
        assert all(p.grad is None for p in snapshot.parameters())
        for live, frozen in zip(cfe.autoencoder.parameters(), snapshot.parameters()):
            assert not np.shares_memory(live.value, frozen.value)
        np.testing.assert_array_equal(snapshot.encode(X), cfe.encode(X))

    def test_max_snapshots_enforced(self):
        cfe = ContinualFeatureExtractor(
            10, latent_dim=4, hidden_dims=(16,), epochs=1, max_snapshots=2, random_state=0
        )
        for seed in range(4):
            X, pseudo = _separable_batch(seed)
            cfe.fit_experience(X, pseudo)
        assert cfe.n_past_models == 2

    def test_mismatched_pseudo_labels_raise(self):
        cfe = ContinualFeatureExtractor(10, epochs=1, random_state=0)
        X, _ = _separable_batch()
        with pytest.raises(ValueError):
            cfe.fit_experience(X, np.zeros(5))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ContinualFeatureExtractor(0)
        with pytest.raises(ValueError):
            ContinualFeatureExtractor(5, epochs=0)
        with pytest.raises(ValueError):
            ContinualFeatureExtractor(5, max_snapshots=0)


class TestCFELossBehaviour:
    def test_cluster_separation_increases_class_distance(self):
        """Training with L_CS pushes overlapping pseudo-classes apart in latent space."""
        rng = np.random.default_rng(0)
        normal = rng.normal(0.0, 1.0, size=(150, 10))
        attack = rng.normal(1.5, 1.0, size=(60, 10))  # heavily overlapping classes
        X = np.vstack([normal, attack])
        pseudo = np.array([0] * 150 + [1] * 60)

        def class_gap(embedding: np.ndarray) -> float:
            centroid_normal = embedding[pseudo == 0].mean(axis=0)
            centroid_attack = embedding[pseudo == 1].mean(axis=0)
            spread = embedding[pseudo == 0].std() + 1e-9
            return float(np.linalg.norm(centroid_normal - centroid_attack) / spread)

        def trained_gap(use_cs: bool) -> float:
            cfe = ContinualFeatureExtractor(
                10, latent_dim=6, hidden_dims=(32,), epochs=10, random_state=0,
                loss_config=CNDLossConfig(use_cluster_separation=use_cs),
            )
            cfe.fit_experience(X, pseudo)
            return class_gap(cfe.encode(X))

        assert trained_gap(True) > trained_gap(False)

    def test_continual_loss_reduces_latent_drift(self):
        """A large lambda_CL keeps embeddings close to the previous experience's."""
        first, pseudo_first = _separable_batch(0)
        second, pseudo_second = _separable_batch(1, shift=3.0)
        probe = np.random.default_rng(5).normal(size=(40, 10))

        def drift(lambda_cl: float, use_continual: bool) -> float:
            cfe = ContinualFeatureExtractor(
                10, latent_dim=6, hidden_dims=(32,), epochs=6, random_state=0,
                loss_config=CNDLossConfig(lambda_cl=lambda_cl, use_continual=use_continual),
            )
            cfe.fit_experience(first, pseudo_first)
            before = cfe.encode(probe)
            cfe.fit_experience(second, pseudo_second)
            after = cfe.encode(probe)
            return float(np.mean((after - before) ** 2))

        assert drift(1.0, True) < drift(0.0, False)

    def test_reconstruction_loss_trains_decoder(self):
        """With L_R enabled the decoder's reconstruction improves; without it the decoder is untouched."""
        X, pseudo = _separable_batch(2)

        def reconstruction_mse(use_reconstruction: bool) -> float:
            cfe = ContinualFeatureExtractor(
                10, latent_dim=6, hidden_dims=(32,), epochs=8, random_state=0,
                loss_config=CNDLossConfig(
                    lambda_r=1.0 if use_reconstruction else 0.0,
                    use_reconstruction=use_reconstruction,
                ),
            )
            initial = float(np.mean((cfe.autoencoder(X) - X) ** 2))
            cfe.fit_experience(X, pseudo)
            final = float(np.mean((cfe.autoencoder(X) - X) ** 2))
            return final - initial

        assert reconstruction_mse(True) < reconstruction_mse(False)

    def test_single_pseudo_class_still_trains(self):
        """With only one pseudo-class the triplet term is inactive but training must not fail."""
        X, _ = _separable_batch(3)
        cfe = ContinualFeatureExtractor(10, latent_dim=6, hidden_dims=(16,), epochs=2, random_state=0)
        losses = cfe.fit_experience(X, np.zeros(X.shape[0], dtype=int))
        assert len(losses) == 2
        assert np.isfinite(losses).all()

    def test_training_losses_recorded(self):
        X, pseudo = _separable_batch(4)
        cfe = ContinualFeatureExtractor(10, latent_dim=6, hidden_dims=(16,), epochs=3, random_state=0)
        cfe.fit_experience(X, pseudo)
        assert len(cfe.training_losses_) == 1
        assert len(cfe.training_losses_[0]) == 3


class _PerBatchPastEncodeCFE(ContinualFeatureExtractor):
    """Reference: every past snapshot re-encodes every batch for its L_CL target."""

    def _continual_targets(self):
        return []

    def _train_step(self, batch_x, batch_labels, batch_past, optimizer):
        targets = [past.encode(batch_x) for past in super()._continual_targets()]
        return super()._train_step(batch_x, batch_labels, targets, optimizer)


def _train_three_experiences(cls, n_rows: int, loss_config=None):
    cfe = cls(
        10, latent_dim=6, hidden_dims=(16,), epochs=3, batch_size=64,
        loss_config=loss_config, random_state=0,
    )
    for seed in range(3):
        X, pseudo = _separable_batch(seed, shift=float(seed))
        cfe.fit_experience(X[:n_rows], pseudo[:n_rows])
    return cfe


class TestCFEPastLatentsEncodedOnce:
    @pytest.mark.parametrize(
        "loss_config",
        [None, CNDLossConfig(lambda_cl=0.5), CNDLossConfig.without_reconstruction_and_continual()],
    )
    def test_matches_per_batch_past_encode(self, loss_config):
        fast = _train_three_experiences(ContinualFeatureExtractor, 210, loss_config)
        naive = _train_three_experiences(_PerBatchPastEncodeCFE, 210, loss_config)
        assert fast.training_losses_ == naive.training_losses_
        for p, q in zip(fast.autoencoder.parameters(), naive.autoencoder.parameters()):
            assert p.value.tobytes() == q.value.tobytes()
        assert fast._rng.bit_generator.state == naive._rng.bit_generator.state

    def test_one_row_final_batch_matches_to_rounding(self):
        # 193 = 3 * 64 + 1: NumPy encodes a lone row with a matrix-vector
        # product, whose last bits may differ from the chunked encode.
        fast = _train_three_experiences(ContinualFeatureExtractor, 193)
        naive = _train_three_experiences(_PerBatchPastEncodeCFE, 193)
        np.testing.assert_allclose(fast.training_losses_, naive.training_losses_, rtol=1e-12)
        for p, q in zip(fast.autoencoder.parameters(), naive.autoencoder.parameters()):
            np.testing.assert_allclose(p.value, q.value, rtol=1e-9, atol=1e-12)
