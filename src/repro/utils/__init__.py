"""Shared utilities: validation and random state handling."""

from repro.utils.random import check_random_state
from repro.utils.validation import (
    check_array,
    check_binary_labels,
    check_consistent_length,
    check_fitted,
)

__all__ = [
    "check_random_state",
    "check_array",
    "check_binary_labels",
    "check_consistent_length",
    "check_fitted",
]
