"""Tests for ranking metrics (PR-AUC, ROC-AUC) and threshold selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import (
    average_precision_score,
    best_f_threshold,
    f1_score,
    pr_auc_score,
    precision_recall_curve,
    quantile_threshold,
    roc_auc_score,
    roc_curve,
)


class TestPrecisionRecallCurve:
    def test_sklearn_documented_example(self):
        """Reference values from the scikit-learn documentation example."""
        y_true = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        assert average_precision_score(y_true, scores) == pytest.approx(0.8333, abs=1e-3)
        assert roc_auc_score(y_true, scores) == pytest.approx(0.75)

    def test_perfect_ranking(self):
        y_true = np.array([0, 0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.3, 0.8, 0.9])
        assert pr_auc_score(y_true, scores) == pytest.approx(1.0)
        assert roc_auc_score(y_true, scores) == pytest.approx(1.0)

    def test_inverted_ranking(self):
        y_true = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert roc_auc_score(y_true, scores) == pytest.approx(0.0)

    def test_random_scores_approach_base_rate(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 2, 5000)
        scores = rng.normal(size=5000)
        assert pr_auc_score(y_true, scores) == pytest.approx(y_true.mean(), abs=0.05)
        assert roc_auc_score(y_true, scores) == pytest.approx(0.5, abs=0.05)

    def test_curve_shapes_consistent(self):
        rng = np.random.default_rng(1)
        y_true = rng.integers(0, 2, 100)
        scores = rng.normal(size=100)
        precision, recall, thresholds = precision_recall_curve(y_true, scores)
        assert precision.shape == recall.shape
        assert thresholds.shape[0] == precision.shape[0] - 1
        assert precision[-1] == 1.0
        assert recall[-1] == 0.0

    def test_roc_curve_endpoints(self):
        rng = np.random.default_rng(2)
        y_true = rng.integers(0, 2, 50)
        scores = rng.normal(size=50)
        fpr, tpr, _ = roc_curve(y_true, scores)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == pytest.approx(1.0)
        assert tpr[-1] == pytest.approx(1.0)

    def test_rejects_nan_scores(self):
        with pytest.raises(ValueError):
            pr_auc_score(np.array([0, 1]), np.array([np.nan, 0.5]))

    def test_rejects_2d_scores(self):
        with pytest.raises(ValueError):
            pr_auc_score(np.array([0, 1]), np.zeros((2, 1)))

    @given(st.integers(2, 80))
    def test_auc_bounds(self, n):
        rng = np.random.default_rng(n)
        y_true = rng.integers(0, 2, n)
        if y_true.sum() == 0:
            y_true[0] = 1
        scores = rng.normal(size=n)
        assert 0.0 <= pr_auc_score(y_true, scores) <= 1.0 + 1e-12
        assert 0.0 <= roc_auc_score(y_true, scores) <= 1.0 + 1e-12

    @given(st.integers(2, 50), st.floats(0.1, 10))
    def test_auc_invariant_to_monotone_transform(self, n, scale):
        rng = np.random.default_rng(n)
        y_true = rng.integers(0, 2, n)
        if y_true.sum() == 0:
            y_true[0] = 1
        scores = rng.normal(size=n)
        transformed = scale * scores + 7.0
        assert pr_auc_score(y_true, scores) == pytest.approx(pr_auc_score(y_true, transformed))
        assert roc_auc_score(y_true, scores) == pytest.approx(roc_auc_score(y_true, transformed))


class TestBestFThreshold:
    def test_separable_scores_reach_perfect_f1(self):
        y_true = np.array([0] * 10 + [1] * 10)
        scores = np.concatenate([np.linspace(0, 0.4, 10), np.linspace(0.6, 1.0, 10)])
        threshold, best_f = best_f_threshold(scores, y_true)
        assert best_f == pytest.approx(1.0)
        predictions = (scores > threshold).astype(int)
        assert f1_score(y_true, predictions) == pytest.approx(1.0)

    def test_matches_brute_force_search(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 2, 60)
        scores = rng.normal(size=60)
        threshold, best_f = best_f_threshold(scores, y_true)
        brute_best = max(
            f1_score(y_true, (scores > candidate).astype(int))
            for candidate in np.concatenate([scores - 1e-9, [scores.max() + 1]])
        )
        assert best_f == pytest.approx(brute_best)
        assert f1_score(y_true, (scores > threshold).astype(int)) == pytest.approx(brute_best)

    def test_no_positive_labels(self):
        scores = np.array([0.1, 0.5, 0.9])
        threshold, best_f = best_f_threshold(scores, np.zeros(3, dtype=int))
        assert best_f == 0.0
        assert np.all((scores > threshold) == False)  # noqa: E712 - explicit comparison intended

    def test_all_positive_labels(self):
        scores = np.array([0.1, 0.5, 0.9])
        threshold, best_f = best_f_threshold(scores, np.ones(3, dtype=int))
        assert best_f == pytest.approx(1.0)
        assert np.all(scores > threshold)

    def test_candidate_subsampling_still_valid(self):
        rng = np.random.default_rng(1)
        y_true = rng.integers(0, 2, 500)
        scores = rng.normal(size=500) + y_true
        _, full = best_f_threshold(scores, y_true)
        _, subsampled = best_f_threshold(scores, y_true, n_candidates=50)
        assert subsampled <= full + 1e-12
        assert subsampled > 0.5 * full

    def test_ties_in_scores_handled(self):
        scores = np.array([0.5, 0.5, 0.5, 0.9])
        y_true = np.array([0, 0, 1, 1])
        threshold, best_f = best_f_threshold(scores, y_true)
        predictions = (scores > threshold).astype(int)
        assert f1_score(y_true, predictions) == pytest.approx(best_f)

    def test_invalid_beta_raises(self):
        with pytest.raises(ValueError):
            best_f_threshold(np.array([0.1]), np.array([1]), beta=0.0)

    @given(st.integers(3, 80))
    def test_threshold_achieves_reported_f(self, n):
        rng = np.random.default_rng(n)
        y_true = rng.integers(0, 2, n)
        scores = rng.normal(size=n)
        threshold, best_f = best_f_threshold(scores, y_true)
        achieved = f1_score(y_true, (scores > threshold).astype(int)) if y_true.sum() else 0.0
        assert achieved == pytest.approx(best_f)


def _same_float(a: float, b: float) -> bool:
    """Equal bits: NaN matches NaN, and -0.0 does not match 0.0."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


_QUANTILE_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
)


class TestQuantileThreshold:
    def test_matches_numpy_quantile(self):
        scores = np.linspace(0, 1, 101)
        assert quantile_threshold(scores, 0.95) == np.quantile(scores, 0.95)

    @given(
        st.lists(_QUANTILE_VALUES, min_size=1, max_size=300),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_equals_numpy_quantile_bit_for_bit(self, values, q):
        scores = np.asarray(values, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            expected = float(np.quantile(scores, q))
            got = quantile_threshold(scores.copy(), q)
        assert _same_float(got, expected), (got, expected)

    # (n, q): n = 1 and 2; g exactly 0 (index 1.0 of 5) and 0.5 (index 0.5
    # of 3); q near 0 and near 1.
    EDGE_CASES = [
        (1, 0.5), (1, 1e-12), (2, 0.5), (2, 0.25), (2, 0.75), (5, 0.25), (3, 0.25),
        (4096, 0.95), (4096, 5e-324), (4096, 1e-12),
        (4096, np.nextafter(1.0, 0.0)), (7, np.nextafter(1.0, 0.0)),
    ]

    @pytest.mark.parametrize("n, q", EDGE_CASES)
    @pytest.mark.parametrize(
        "fill", ["normal", "ties", "signed_zeros", "infinities", "nan"]
    )
    def test_edge_cases_equal_numpy_quantile(self, n, q, fill):
        rng = np.random.default_rng(n)
        if fill == "normal":
            scores = rng.normal(size=n)
        elif fill == "ties":
            scores = rng.integers(0, 3, size=n).astype(np.float64)
        elif fill == "signed_zeros":
            scores = rng.choice([0.0, -0.0, 1.0], size=n)
        elif fill == "infinities":
            scores = rng.choice([-np.inf, np.inf, 0.0, 2.5], size=n)
        else:
            scores = rng.normal(size=n)
            scores[rng.integers(n)] = np.nan
        with np.errstate(invalid="ignore"):
            expected = float(np.quantile(scores, q))
            got = quantile_threshold(scores, q)
        assert _same_float(got, expected), (got, expected)

    def test_signed_zeros_land_where_numpy_puts_them(self):
        # -0.0 == 0.0, so which of them a partition leaves at a position
        # depends on the positions it was asked to place.
        for seed in range(8):
            scores = np.random.default_rng(seed).choice([0.0, -0.0, 1.0], size=1000)
            for q in (0.25, 0.5):
                expected = float(np.quantile(scores, q))
                assert _same_float(quantile_threshold(scores, q), expected), (seed, q)

    def test_gamma_is_exact_where_the_index_is_whole_or_half(self):
        scores = np.array([4.0, 1.0, 3.0, 2.0, 0.0])
        assert quantile_threshold(scores, 0.25) == 1.0  # index 1.0, g = 0
        assert quantile_threshold(scores[:3], 0.25) == 2.0  # index 0.5, g = 0.5
        assert np.isnan(quantile_threshold(np.array([1.0, np.nan, 2.0]), 0.1))

    def test_does_not_reorder_its_input(self):
        scores = np.random.default_rng(0).normal(size=100)
        before = scores.copy()
        quantile_threshold(scores, 0.9)
        np.testing.assert_array_equal(scores, before)

    def test_invalid_quantile_raises(self):
        with pytest.raises(ValueError):
            quantile_threshold(np.array([1.0]), 1.0)

    def test_empty_scores_raise(self):
        with pytest.raises(ValueError):
            quantile_threshold(np.array([]), 0.9)

    def test_flags_expected_fraction(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=10_000)
        threshold = quantile_threshold(scores, 0.95)
        assert (scores > threshold).mean() == pytest.approx(0.05, abs=0.01)
