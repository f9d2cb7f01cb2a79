"""Loss-function tests: values, gradients and triplet mining behaviour."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nn import BCELoss, MSELoss, SoftmaxCrossEntropyLoss, TripletMarginLoss


def _numerical_grad(loss_only, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    for index in np.ndindex(*x.shape):
        original = x[index]
        x[index] = original + eps
        plus = loss_only()
        x[index] = original - eps
        minus = loss_only()
        x[index] = original
        grad[index] = (plus - minus) / (2 * eps)
    return grad


class TestMSELoss:
    def test_zero_for_identical_inputs(self):
        loss, grad = MSELoss()(np.ones((3, 2)), np.ones((3, 2)))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_known_value(self):
        loss, _ = MSELoss()(np.array([[2.0]]), np.array([[0.0]]))
        assert loss == pytest.approx(4.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MSELoss()(np.ones((2, 2)), np.ones((2, 3)))

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))
        loss_fn = MSELoss()
        _, grad = loss_fn(pred, target)
        numerical = _numerical_grad(lambda: loss_fn(pred, target)[0], pred)
        np.testing.assert_allclose(grad, numerical, atol=1e-6)

    @given(st.integers(1, 20), st.integers(1, 5))
    def test_nonnegative(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        loss, _ = MSELoss()(rng.normal(size=(n, d)), rng.normal(size=(n, d)))
        assert loss >= 0.0


class TestBCELoss:
    def test_perfect_prediction_near_zero(self):
        pred = np.array([0.999999, 0.000001])
        target = np.array([1.0, 0.0])
        loss, _ = BCELoss()(pred, target)
        assert loss < 1e-4

    def test_known_value_at_half(self):
        loss, _ = BCELoss()(np.array([0.5]), np.array([1.0]))
        assert loss == pytest.approx(np.log(2.0))

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0.05, 0.95, size=(6,))
        target = rng.integers(0, 2, size=6).astype(float)
        loss_fn = BCELoss()
        _, grad = loss_fn(pred, target)
        numerical = _numerical_grad(lambda: loss_fn(pred, target)[0], pred)
        np.testing.assert_allclose(grad, numerical, atol=1e-5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            BCELoss()(np.ones(3), np.ones(4))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = np.zeros((4, 5))
        target = np.array([0, 1, 2, 3])
        loss, _ = SoftmaxCrossEntropyLoss()(logits, target)
        assert loss == pytest.approx(np.log(5.0))

    def test_confident_correct_prediction_near_zero(self):
        logits = np.array([[20.0, 0.0], [0.0, 20.0]])
        loss, _ = SoftmaxCrossEntropyLoss()(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 3))
        target = rng.integers(0, 3, size=5)
        loss_fn = SoftmaxCrossEntropyLoss()
        _, grad = loss_fn(logits, target)
        numerical = _numerical_grad(lambda: loss_fn(logits, target)[0], logits)
        np.testing.assert_allclose(grad, numerical, atol=1e-6)

    def test_rejects_out_of_range_targets(self):
        with pytest.raises(ValueError, match="out of range"):
            SoftmaxCrossEntropyLoss()(np.zeros((2, 3)), np.array([0, 3]))

    def test_rejects_1d_logits(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropyLoss()(np.zeros(3), np.array([0, 1, 2]))

    def test_predict_proba_rows_sum_to_one(self):
        probs = SoftmaxCrossEntropyLoss.predict_proba(np.random.default_rng(0).normal(size=(10, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0.0)


class TestTripletMarginLoss:
    def test_rejects_nonpositive_margin(self):
        with pytest.raises(ValueError):
            TripletMarginLoss(margin=0.0)

    def test_single_class_returns_zero(self):
        loss_fn = TripletMarginLoss(random_state=0)
        embeddings = np.random.default_rng(0).normal(size=(8, 4))
        labels = np.zeros(8, dtype=int)
        loss, grad = loss_fn(embeddings, labels)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_well_separated_classes_give_zero_loss(self):
        loss_fn = TripletMarginLoss(margin=1.0, random_state=0)
        class_a = np.zeros((10, 3))
        class_b = np.full((10, 3), 100.0)
        embeddings = np.vstack([class_a, class_b])
        labels = np.array([0] * 10 + [1] * 10)
        loss, _ = loss_fn(embeddings, labels)
        assert loss == pytest.approx(0.0)

    def test_overlapping_classes_give_positive_loss(self):
        rng = np.random.default_rng(0)
        embeddings = rng.normal(size=(30, 4))
        labels = rng.integers(0, 2, size=30)
        loss, grad = TripletMarginLoss(margin=1.0, random_state=0)(embeddings, labels)
        assert loss > 0.0
        assert np.any(grad != 0.0)

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(5)
        embeddings = rng.normal(size=(10, 3))
        labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        loss_fn = TripletMarginLoss(margin=1.0, random_state=42)
        triplets = loss_fn.mine_triplets(labels)

        def loss_with_fixed_triplets() -> float:
            anchors = embeddings[triplets[:, 0]]
            positives = embeddings[triplets[:, 1]]
            negatives = embeddings[triplets[:, 2]]
            d_ap = np.sqrt(np.sum((anchors - positives) ** 2, axis=1) + 1e-12)
            d_an = np.sqrt(np.sum((anchors - negatives) ** 2, axis=1) + 1e-12)
            return float(np.mean(np.maximum(d_ap - d_an + 1.0, 0.0)))

        # Recompute the analytical gradient with the same mined triplets by
        # monkey-patching the miner to return the fixed set.
        loss_fn.mine_triplets = lambda labels_arg: triplets  # type: ignore[assignment]
        _, grad = loss_fn(embeddings, labels)
        numerical = _numerical_grad(loss_with_fixed_triplets, embeddings)
        np.testing.assert_allclose(grad, numerical, atol=1e-5)

    def test_mine_triplets_structure(self):
        loss_fn = TripletMarginLoss(random_state=0)
        labels = np.array([0, 0, 1, 1, 1])
        triplets = loss_fn.mine_triplets(labels)
        assert triplets.shape[1] == 3
        for anchor, positive, negative in triplets:
            assert labels[anchor] == labels[positive]
            assert labels[anchor] != labels[negative]
            assert anchor != positive

    def test_mine_triplets_multiple_per_anchor(self):
        loss_fn = TripletMarginLoss(triplets_per_anchor=3, random_state=0)
        labels = np.array([0, 0, 0, 1, 1, 1])
        triplets = loss_fn.mine_triplets(labels)
        assert triplets.shape[0] == 6 * 3

    def test_labels_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            TripletMarginLoss(random_state=0)(np.zeros((4, 2)), np.zeros(3))


def _mine_triplets_naive(loss_fn: TripletMarginLoss, labels: np.ndarray) -> np.ndarray:
    """Per-anchor sampling loop: one ``choice`` per positive and per negative."""
    labels = np.asarray(labels)
    if np.unique(labels).size < 2:
        return np.empty((0, 3), dtype=np.int64)
    triplets = []
    for anchor in range(labels.shape[0]):
        positives = np.flatnonzero(labels == labels[anchor])
        positives = positives[positives != anchor]
        negatives = np.flatnonzero(labels != labels[anchor])
        if positives.size == 0 or negatives.size == 0:
            continue
        for _ in range(loss_fn.triplets_per_anchor):
            pos = int(loss_fn._rng.choice(positives))
            neg = int(loss_fn._rng.choice(negatives))
            triplets.append((anchor, pos, neg))
    if not triplets:
        return np.empty((0, 3), dtype=np.int64)
    return np.asarray(triplets, dtype=np.int64)


_MINING_CASES = {
    "binary": np.random.default_rng(0).integers(0, 2, size=128),
    "three-class": np.random.default_rng(1).integers(0, 3, size=97),
    "non-contiguous": np.random.default_rng(2).choice([-1, 5], size=64),
    "singleton-classes": np.array([3, 0, 0, 7, 0, 1, 1, 0, 9]),
    "all-singletons": np.array([4, 2, 8]),
    "single-class": np.zeros(10, dtype=np.int64),
    "pairs": np.array([1, 0, 1, 0]),
    "empty": np.empty(0, dtype=np.int64),
}


class TestTripletMiningMatchesPerAnchorLoop:
    @pytest.mark.parametrize("triplets_per_anchor", [1, 2])
    @pytest.mark.parametrize("case", sorted(_MINING_CASES))
    def test_same_triplets_and_generator_state(self, case, triplets_per_anchor):
        labels = _MINING_CASES[case]
        fast = TripletMarginLoss(triplets_per_anchor=triplets_per_anchor, random_state=7)
        naive = TripletMarginLoss(triplets_per_anchor=triplets_per_anchor, random_state=7)
        for _ in range(3):  # consecutive batches share the generator
            expected = _mine_triplets_naive(naive, labels)
            got = fast.mine_triplets(labels)
            assert got.dtype == expected.dtype == np.int64
            np.testing.assert_array_equal(got, expected)
        assert fast._rng.bit_generator.state == naive._rng.bit_generator.state

    @given(
        labels=st.lists(st.integers(-3, 3), min_size=0, max_size=60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_label_vectors(self, labels, seed):
        labels = np.asarray(labels, dtype=np.int64)
        fast = TripletMarginLoss(random_state=seed)
        naive = TripletMarginLoss(random_state=seed)
        expected = _mine_triplets_naive(naive, labels)
        np.testing.assert_array_equal(fast.mine_triplets(labels), expected)
        assert fast._rng.bit_generator.state == naive._rng.bit_generator.state
