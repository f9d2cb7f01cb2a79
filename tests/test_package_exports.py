"""Every package's ``__all__`` names resolve, and deleted modules stay gone."""

from __future__ import annotations

import importlib

import pytest

#: package -> names it exported before the test-only / unused code was deleted
REMOVED = {
    "repro.metrics": (
        "matthews_corrcoef", "balanced_accuracy_score", "false_positive_rate",
        "detection_rate_at_fpr", "fpr_at_recall",
    ),
    "repro.nn": ("Dropout", "BatchNorm1d", "StepLR", "ExponentialLR", "EarlyStopping"),
    "repro.novelty": ("AutoencoderDetector",),
    "repro.serve": ("ShadowEvaluator", "ShadowTrial", "ShadowVerdict"),
    "repro.serve.lifecycle": ("ShadowEvaluator", "ShadowTrial", "ShadowVerdict"),
}


@pytest.mark.parametrize("package", sorted(REMOVED))
def test_exports_resolve_and_removed_names_are_gone(package):
    module = importlib.import_module(package)
    assert len(module.__all__) == len(set(module.__all__))
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names unbound attributes: {missing}"
    assert not set(REMOVED[package]) & set(module.__all__)
    assert not [name for name in REMOVED[package] if hasattr(module, name)]
