"""Tests for repro.utils: random-state handling and validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import (
    check_array,
    check_binary_labels,
    check_consistent_length,
    check_fitted,
    check_random_state,
)


class TestCheckRandomState:
    def test_none_returns_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = check_random_state(42).random(5)
        b = check_random_state(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = check_random_state(1).random(5)
        b = check_random_state(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert check_random_state(gen) is gen

    def test_numpy_integer_seed(self):
        gen = check_random_state(np.int64(7))
        assert isinstance(gen, np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError, match="random_state"):
            check_random_state("not-a-seed")


class TestCheckArray:
    def test_converts_list_to_float_array(self):
        result = check_array([[1, 2], [3, 4]])
        assert result.dtype == np.float64
        assert result.shape == (2, 2)

    def test_rejects_1d_when_2d_required(self):
        with pytest.raises(ValueError, match="2-D"):
            check_array([1.0, 2.0, 3.0])

    def test_allows_1d_when_not_ensure_2d(self):
        result = check_array([1.0, 2.0], ensure_2d=False)
        assert result.ndim == 1

    def test_rejects_3d_when_not_ensure_2d(self):
        with pytest.raises(ValueError):
            check_array(np.zeros((2, 2, 2)), ensure_2d=False)

    def test_rejects_empty_by_default(self):
        with pytest.raises(ValueError, match="at least one sample"):
            check_array(np.empty((0, 3)))

    def test_allows_empty_when_requested(self):
        result = check_array(np.empty((0, 3)), allow_empty=True)
        assert result.shape == (0, 3)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            check_array([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            check_array([[np.inf, 1.0]])

    def test_error_message_uses_name(self):
        with pytest.raises(ValueError, match="my_input"):
            check_array([1.0], name="my_input")


class TestCheckBinaryLabels:
    def test_accepts_zero_one(self):
        labels = check_binary_labels([0, 1, 1, 0])
        assert labels.dtype == np.int64

    def test_accepts_bool(self):
        labels = check_binary_labels(np.array([True, False]))
        assert set(labels.tolist()) <= {0, 1}

    def test_accepts_all_zeros(self):
        assert check_binary_labels([0, 0, 0]).sum() == 0

    def test_rejects_multiclass(self):
        with pytest.raises(ValueError, match="binary"):
            check_binary_labels([0, 1, 2])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            check_binary_labels([[0, 1]])


class TestConsistentLength:
    def test_consistent_passes(self):
        check_consistent_length([1, 2, 3], np.zeros(3))

    def test_inconsistent_raises(self):
        with pytest.raises(ValueError, match="Inconsistent"):
            check_consistent_length([1, 2], [1, 2, 3])

    def test_none_entries_ignored(self):
        check_consistent_length([1, 2], None, [3, 4])


class TestCheckFitted:
    def test_missing_attribute_raises(self):
        class Dummy:
            attr = None

        with pytest.raises(RuntimeError, match="not fitted"):
            check_fitted(Dummy(), "attr")

    def test_present_attribute_passes(self):
        class Dummy:
            attr = 1.0

        check_fitted(Dummy(), "attr")
