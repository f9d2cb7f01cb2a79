"""Every random draw in the library comes from the caller's seed.

Each case runs one stochastic entry point twice with the same integer seed
and asserts that both runs give equal output.  Both runs happen under a
guard that records every unseeded ``np.random.default_rng()`` and every
call through NumPy's or the stdlib's global random state; a case that
reaches one fails even if its output happens to match.  That catches a
helper that drops the caller's seed on the way down (a sub-model built
without ``random_state``, a generator built with no arguments) at the site
where it happens, not only through a changed score.

Wall-clock timings are left out of the compared output: they are
measurement, not results.
"""

from __future__ import annotations

import contextlib
import math
import random

import numpy as np
import pytest

from repro.continual import ADCN, ContinualScenario, LwF
from repro.core import CNDIDS, ContinualFeatureExtractor, compute_pseudo_labels
from repro.datasets import (
    DATASET_NAMES,
    FlowStream,
    SyntheticIDSGenerator,
    get_dataset_spec,
    inject_drift,
    load_dataset,
)
from repro.experiments import (
    ExperimentConfig,
    run_fig1,
    run_fig3,
    run_fig4,
    run_table1,
    run_table3,
)
from repro.experiments.runner import clear_cache
from repro.ml import PCA, KMeans, elbow_method, stratified_indices, train_test_split
from repro.nn import (
    MLP,
    Adam,
    Autoencoder,
    Linear,
    MSELoss,
    Trainer,
    TripletMarginLoss,
    batch_iterator,
    he_init,
    xavier_init,
)
from repro.novelty import (
    DeepIsolationForest,
    IsolationForest,
    LocalOutlierFactor,
    MahalanobisDetector,
    OneClassSVM,
    PCAReconstructionDetector,
)
from repro.serve import FaultInjector, call_with_retry
from repro.supervised import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    DNNClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)

#: NumPy module-level functions that draw from (or reset) the global state.
NP_GLOBAL_FNS = (
    "seed", "random", "rand", "randn", "randint", "random_sample", "choice",
    "shuffle", "permutation", "uniform", "normal", "standard_normal",
    "get_state", "set_state",
)
#: stdlib ``random`` module-level functions, which share one hidden Random().
STDLIB_RANDOM_FNS = (
    "seed", "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "getrandbits",
)
#: Result keys that hold wall-clock timings.
TIMING_KEYS = {"train_time_s", "inference_time_ms_per_sample", "inference_ms_per_sample"}

QUICK = ExperimentConfig.quick(
    datasets=("wustl_iiot",),
    scale=0.0015,
    epochs=1,
    latent_dim=8,
    hidden_dims=(16,),
)


@contextlib.contextmanager
def only_seeded_rngs():
    """Record every unseeded generator and global-state draw made inside."""
    violations: list[str] = []
    real_default_rng = np.random.default_rng

    def seeded_default_rng(seed=None):
        if seed is None:
            violations.append("np.random.default_rng() without a seed")
        return real_default_rng(seed)

    def forbidden(name):
        def call(*args, **kwargs):
            violations.append(f"{name}() on the global random state")
            raise AssertionError(f"{name}() draws from the global random state")

        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", seeded_default_rng)
        for name in NP_GLOBAL_FNS:
            patch.setattr(np.random, name, forbidden(f"np.random.{name}"))
        for name in STDLIB_RANDOM_FNS:
            patch.setattr(random, name, forbidden(f"random.{name}"))
        yield violations


def assert_same(a, b, where="output"):
    """Deep equality: arrays bit for bit (NaN equal to NaN), timings skipped."""
    if isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=where)
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            if key not in TIMING_KEYS:
                assert_same(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, float) and math.isnan(a):
        assert isinstance(b, float) and math.isnan(b), where
    else:
        assert a == b, f"{where}: {a!r} != {b!r}"


@pytest.fixture(scope="module")
def data():
    generator = np.random.default_rng(3)
    X = generator.normal(size=(240, 6))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int64)
    X_test = np.vstack([generator.normal(size=(40, 6)), generator.normal(5.0, 1.0, size=(20, 6))])
    return {"X": X, "y": y, "X_test": X_test}


@pytest.fixture(scope="module")
def scenario():
    return ContinualScenario.from_dataset(
        load_dataset("wustl_iiot", scale=0.001, seed=0), n_experiences=2, seed=0
    )


# -- entry points --------------------------------------------------------------
def _detector(detector, d, _scenario):
    detector.fit(d["X"])
    return detector.score_samples(d["X_test"]), detector.predict(d["X_test"])


def _classifier(model, d, _scenario):
    model.fit(d["X"], d["y"])
    return model.predict(d["X_test"])


def _continual(method_cls, **kwargs):
    def run(_d, scenario):
        method = method_cls(
            scenario.n_features, latent_dim=4, hidden_dims=(8,), epochs=1, **kwargs
        )
        method.setup(scenario.clean_normal)
        outputs = []
        for experience in scenario:
            method.fit_experience(
                experience.X_train,
                calibration_X=experience.calibration_X,
                calibration_y=experience.calibration_y,
            )
            for test in scenario:
                outputs.append(method.predict(test.X_test, y_true=test.y_test))
                if method.supports_scores:
                    outputs.append(method.score_samples(test.X_test))
        return outputs

    return run


def _feature_extractor(d, _scenario):
    cfe = ContinualFeatureExtractor(6, latent_dim=4, hidden_dims=(8,), epochs=2, random_state=0)
    losses = cfe.fit_experience(d["X"], d["y"])
    return losses, cfe.encode(d["X_test"])


def _scenario(_d, _scenario):
    built = ContinualScenario.from_dataset(
        load_dataset("unsw_nb15", scale=0.001, seed=1), n_experiences=3, seed=1
    )
    return [
        (e.X_train, e.X_test, e.y_test, e.calibration_X, e.calibration_y) for e in built
    ] + [built.clean_normal]


def _trainer(d, _scenario):
    model = MLP([6, 8, 6], random_state=0)
    loss = MSELoss()
    trainer = Trainer(
        model, Adam(model.parameters()), loss, batch_size=32, epochs=2, random_state=0
    )
    history = trainer.fit(d["X"], d["X"])
    return history.epoch_losses, model.forward(d["X_test"])


def _arrays(dataset):
    return dataset.X, dataset.y, dataset.attack_types


def _dataset(name):
    return lambda _d, _scenario: _arrays(load_dataset(name, scale=0.001, seed=2))


def _flow_stream(_d, scenario):
    dataset = load_dataset("wustl_iiot", scale=0.001, seed=0)
    return list(FlowStream(dataset, batch_size=64, drift_strength=2.0, random_state=0))


def _fault_injector(**kwargs):
    def run(_d, _scenario):
        faults = FaultInjector(seed=5, **kwargs)
        return [faults.poisoned_rows(i, 64) for i in range(8)]

    return run


def _retry_backoff(_d, _scenario):
    delays: list[float] = []
    calls = iter(range(3))

    def flaky():
        if next(calls) < 2:
            raise OSError("transient")
        return "ok"

    result = call_with_retry(flaky, attempts=3, backoff=0.01, jitter_seed=4, sleep=delays.append)
    return result, delays


def _experiment(runner, config=QUICK):
    def run(_d, _scenario):
        clear_cache()
        try:
            return runner(config)
        finally:
            clear_cache()

    return run


CASES = {
    # novelty detectors: fit, score and threshold
    "PCAReconstructionDetector": lambda d, s: _detector(PCAReconstructionDetector(), d, s),
    "LocalOutlierFactor": lambda d, s: _detector(
        LocalOutlierFactor(n_neighbors=5, max_train_samples=100), d, s
    ),
    "OneClassSVM": lambda d, s: _detector(OneClassSVM(n_features_rff=32, n_epochs=2), d, s),
    "IsolationForest": lambda d, s: _detector(
        IsolationForest(n_estimators=10, max_samples=64), d, s
    ),
    "DeepIsolationForest": lambda d, s: _detector(
        DeepIsolationForest(
            n_representations=2,
            n_estimators_per_representation=5,
            representation_dim=4,
            hidden_dims=(8,),
            max_samples=64,
        ),
        d,
        s,
    ),
    "MahalanobisDetector": lambda d, s: _detector(MahalanobisDetector(), d, s),
    # supervised baselines
    "DecisionTreeClassifier": lambda d, s: _classifier(
        DecisionTreeClassifier(max_features="sqrt", random_state=0), d, s
    ),
    "DecisionTreeRegressor": lambda d, s: _classifier(
        DecisionTreeRegressor(max_features=0.5, random_state=0), d, s
    ),
    "RandomForestClassifier": lambda d, s: _classifier(
        RandomForestClassifier(n_estimators=5, max_depth=4, random_state=0), d, s
    ),
    "GradientBoostingClassifier": lambda d, s: _classifier(
        GradientBoostingClassifier(n_estimators=5, subsample=0.7, random_state=0), d, s
    ),
    "DNNClassifier": lambda d, s: _classifier(DNNClassifier(hidden_dims=(8,), epochs=2), d, s),
    # continual methods over a two-experience scenario
    "CNDIDS": _continual(CNDIDS),
    "ADCN": _continual(ADCN, n_clusters=3),
    "LwF": _continual(LwF, n_clusters=3),
    "ContinualFeatureExtractor": _feature_extractor,
    "compute_pseudo_labels": lambda d, s: compute_pseudo_labels(
        d["X"], d["X"][:40], k_range=range(2, 5), random_state=0
    )[0],
    "ContinualScenario.from_dataset": _scenario,
    # neural-network building blocks
    "Linear": lambda d, s: Linear(6, 4, random_state=0).forward(d["X_test"]),
    "MLP": lambda d, s: MLP([6, 8, 2], random_state=0).forward(d["X_test"]),
    "Autoencoder": lambda d, s: Autoencoder(6, latent_dim=3, hidden_dims=(8,), random_state=0)
    .forward(d["X_test"]),
    "Trainer": _trainer,
    "batch_iterator": lambda d, s: list(
        batch_iterator(d["X"], d["y"], batch_size=50, random_state=0)
    ),
    "he_init": lambda d, s: he_init(6, 4, rng=0),
    "xavier_init": lambda d, s: xavier_init(6, 4, rng=0),
    "TripletMarginLoss": lambda d, s: TripletMarginLoss(triplets_per_anchor=2, random_state=0)
    .mine_triplets(d["y"]),
    # classical ML helpers
    "PCA": lambda d, s: PCA(n_components=3).fit(d["X"]).transform(d["X_test"]),
    "KMeans": lambda d, s: KMeans(n_clusters=3, random_state=0).fit(d["X"]).labels_,
    "elbow_method": lambda d, s: elbow_method(d["X"], range(2, 6), random_state=0),
    "train_test_split": lambda d, s: train_test_split(
        d["X"], d["y"], stratify=d["y"], random_state=0
    ),
    "stratified_indices": lambda d, s: stratified_indices(d["y"], 0.3, np.random.default_rng(0)),
    # data generation and streaming
    **{f"load_dataset[{name}]": _dataset(name) for name in DATASET_NAMES},
    "SyntheticIDSGenerator.generate": lambda d, s: _arrays(
        SyntheticIDSGenerator(get_dataset_spec("xiiotid"), scale=0.001).generate(seed=4)
    ),
    "FlowStream": _flow_stream,
    "inject_drift[shift]": lambda d, s: inject_drift(d["X"], kind="shift", random_state=0),
    "inject_drift[scale]": lambda d, s: inject_drift(d["X"], kind="scale", random_state=0),
    # serving faults and retries
    "FaultInjector[nan_rate]": _fault_injector(nan_rate=0.1),
    "FaultInjector[nan_every]": _fault_injector(nan_every=2, nan_rows=3),
    "call_with_retry": _retry_backoff,
    # experiment runners on the quick profile
    "run_table1": _experiment(run_table1, ExperimentConfig(scale=0.001)),
    "run_fig1": _experiment(run_fig1),
    "run_fig3": _experiment(run_fig3),
    "run_fig4": _experiment(run_fig4),
    "run_table3": _experiment(run_table3),
}


@pytest.mark.parametrize("case", list(CASES))
def test_same_seed_replays_without_unseeded_draws(case, data, scenario):
    runs = []
    for _ in range(2):
        with only_seeded_rngs() as violations:
            runs.append(CASES[case](data, scenario))
        assert not violations, f"{case}: {sorted(set(violations))}"
    assert_same(runs[0], runs[1], case)


def test_guard_records_an_unseeded_generator():
    with only_seeded_rngs() as violations:
        np.random.default_rng().random()
        np.random.default_rng(0).random()
    assert violations == ["np.random.default_rng() without a seed"]


@pytest.mark.parametrize("call", [lambda: np.random.rand(3), lambda: random.random()])
def test_guard_refuses_the_global_random_state(call):
    with only_seeded_rngs() as violations, pytest.raises(AssertionError, match="global"):
        call()
    assert len(violations) == 1
