"""Every package's ``__all__`` is exact, and deleted names stay gone.

For each ``repro`` package, checked on the imported module:

* ``__all__`` is a list or tuple of unique strings;
* every name it lists is bound;
* every public name the ``__init__`` binds to an object defined in a
  ``repro`` module is listed (submodules excepted), so nothing becomes API
  by accident.

Names and command-line options that were deleted must fail loudly: the
names are unbound, and the options exit with a usage error (code 2).
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import pytest

import repro
from repro.experiments.cli import main as repro_main

PACKAGES = sorted(
    ".".join(init.parent.relative_to(Path(repro.__file__).parents[1]).parts)
    for init in Path(repro.__file__).parent.rglob("__init__.py")
)

#: package -> names it exported before the test-only / unused code was deleted
REMOVED = {
    "repro.continual": ("ExperienceReplay", "CumulativeRetraining"),
    "repro.metrics": (
        "matthews_corrcoef", "balanced_accuracy_score", "false_positive_rate",
        "detection_rate_at_fpr", "fpr_at_recall",
    ),
    "repro.ml": ("batch_bin_right", "histogram_log_densities"),
    "repro.nn": ("Dropout", "BatchNorm1d", "StepLR", "ExponentialLR", "EarlyStopping"),
    "repro.novelty": ("AutoencoderDetector", "KNNDetector", "HBOS", "LODA"),
    "repro.serve": (
        "ShadowEvaluator", "ShadowTrial", "ShadowVerdict", "MetricsEvent",
        "configure_logging", "get_logger", "log_event", "logger",
    ),
    "repro.serve.lifecycle": ("ShadowEvaluator", "ShadowTrial", "ShadowVerdict"),
    "repro.serve.telemetry": (
        "MemoryProfiler", "read_rss_bytes", "MetricsEvent",
        "configure_logging", "get_logger", "log_event", "logger",
        "build_forest", "critical_path", "stage_multiset", "tree_shape",
    ),
}

#: deleted command-line surface: each invocation must be a usage error
REMOVED_INVOCATIONS = [
    ["lint"],
    ["lint", "src"],
    ["lint", "--rules", "RL002"],
    ["lint", "--rules", "RL004"],
    ["lint", "--rules", "RL006"],
    ["lint", "--rules", "RL008"],
    ["lint", "--rules", "RL010"],
    ["lint", "--rules", "RL011"],
    ["lint", "--docs", "README.md"],
    ["lint", "--no-baseline"],
    ["lint", "--write-baseline"],
    ["lint", "--baseline", "F"],
    ["serve", "--profile-mem"],
    ["serve", "--metrics-every", "4"],
    ["serve", "--detector", "knn"],
    ["serve", "--detector", "hbos"],
    ["serve", "--detector", "loda"],
    ["serve", "--log-level", "info"],
    ["serve", "report", "R", "--budget", "score=1"],
    ["serve", "report", "R", "--budget-metric", "p95"],
    ["trace", "F", "--view", "tree"],
    ["trace", "F", "--budget-metric", "p50"],
]


def _from_repro(value) -> bool:
    origin = getattr(value, "__module__", None)
    return isinstance(origin, str) and (origin == "repro" or origin.startswith("repro."))


def test_every_package_is_checked():
    assert len(PACKAGES) == 14
    assert set(REMOVED) <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_lists_exactly_the_public_names(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert isinstance(exported, (list, tuple))
    assert all(isinstance(name, str) for name in exported)
    assert len(exported) == len(set(exported))
    unbound = [name for name in exported if not hasattr(module, name)]
    assert not unbound, f"{package}.__all__ names unbound attributes: {unbound}"
    unlisted = sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and _from_repro(value)
        and name not in exported
    )
    assert not unlisted, f"{package} binds public names missing from __all__: {unlisted}"


@pytest.mark.parametrize("package", sorted(REMOVED))
def test_removed_names_are_gone(package):
    module = importlib.import_module(package)
    assert not set(REMOVED[package]) & set(module.__all__)
    assert not [name for name in REMOVED[package] if hasattr(module, name)]


@pytest.mark.parametrize("argv", REMOVED_INVOCATIONS, ids=" ".join)
def test_removed_options_are_usage_errors(argv, capsys):
    try:
        code = repro_main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err
