"""Micro-benchmarks of the individual components (proper pytest-benchmark timings).

These complement the table/figure benches: they time the hot paths of the
library (CFE training epoch, CFE encoding, PCA fit / scoring, pseudo-label
computation, the static detectors' scoring) so performance regressions are
visible independently of the experiment harness.

The second half pins *structural* bounds, measured inline with no file
output: ratios and ceilings that only break when the shape of the code
changes (a vectorized path falling back to per-row work, a Python loop on
the per-batch path, a cache that stops hitting), never on host noise alone.
End-to-end and per-layer numbers live in ``perfbench/``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import CNDLossConfig, ContinualFeatureExtractor, compute_pseudo_labels
from repro.ml import PCA, KMeans, pairwise_squared_euclidean
from repro.novelty import (
    DeepIsolationForest,
    IsolationForest,
    LocalOutlierFactor,
)
from repro.serve.faults import ResilientSink, call_with_retry
from repro.serve.lifecycle import FullRefit
from repro.serve.registry import ModelRegistry
from repro.serve.service import DetectionService
from repro.serve.sinks import ListSink
from repro.serve.telemetry import (
    MetricsRegistry,
    SpanBuffer,
    build_report,
    render_markdown,
    render_prometheus,
    trace_span,
)
from repro.serve.telemetry.metrics import DISABLED
from repro.supervised import (
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)

RNG = np.random.default_rng(0)
X_TRAIN = RNG.normal(size=(2000, 40))
X_SCORE = RNG.normal(size=(1000, 40))
CLEAN_NORMAL = RNG.normal(size=(400, 40))


def test_bench_cfe_training_epoch(benchmark):
    cfe = ContinualFeatureExtractor(
        40, latent_dim=32, hidden_dims=(128,), epochs=1, random_state=0,
        loss_config=CNDLossConfig(),
    )
    pseudo = RNG.integers(0, 2, X_TRAIN.shape[0])
    benchmark.pedantic(lambda: cfe.fit_experience(X_TRAIN, pseudo), rounds=3, iterations=1)


def test_bench_cfe_encode(benchmark):
    cfe = ContinualFeatureExtractor(40, latent_dim=32, hidden_dims=(128,), epochs=1, random_state=0)
    cfe.fit_experience(X_TRAIN[:500], np.zeros(500, dtype=int))
    result = benchmark(lambda: cfe.encode(X_SCORE))
    assert result.shape == (X_SCORE.shape[0], 32)


def test_bench_pca_fit(benchmark):
    benchmark(lambda: PCA(n_components=0.95).fit(X_TRAIN))


def test_bench_pca_reconstruction_score(benchmark):
    pca = PCA(n_components=0.95).fit(CLEAN_NORMAL)
    scores = benchmark(lambda: pca.reconstruction_error(X_SCORE))
    assert scores.shape == (X_SCORE.shape[0],)


def test_bench_kmeans_fit(benchmark):
    benchmark.pedantic(
        lambda: KMeans(n_clusters=8, n_init=1, random_state=0).fit(X_TRAIN),
        rounds=3,
        iterations=1,
    )


def test_bench_pseudo_label_computation(benchmark):
    benchmark.pedantic(
        lambda: compute_pseudo_labels(X_TRAIN, CLEAN_NORMAL, n_clusters=6, random_state=0),
        rounds=3,
        iterations=1,
    )


@pytest.mark.parametrize(
    "detector_factory",
    [
        pytest.param(lambda: LocalOutlierFactor(n_neighbors=20, random_state=0), id="lof"),
        pytest.param(lambda: IsolationForest(n_estimators=50, random_state=0), id="iforest"),
        pytest.param(
            lambda: DeepIsolationForest(
                n_representations=3, n_estimators_per_representation=10, random_state=0
            ),
            id="dif",
        ),
    ],
)
def test_bench_static_detector_scoring(benchmark, detector_factory):
    detector = detector_factory().fit(CLEAN_NORMAL)
    scores = benchmark(lambda: detector.score_samples(X_SCORE))
    assert scores.shape == (X_SCORE.shape[0],)


# ---------------------------------------------------------------------------
# structural bounds
# ---------------------------------------------------------------------------

def _best_seconds(fn, *, repeats: int = 3, inner: int = 1) -> float:
    """Best per-call wall time of ``fn`` over ``repeats`` loops of ``inner`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return max(best, 1e-9)


@pytest.fixture(scope="module")
def blobs():
    """Two noisy Gaussian blobs: 2000 labelled train rows, 10k test rows."""
    rng = np.random.default_rng(0)
    X_train = rng.normal(size=(2000, 16))
    y_train = (X_train[:, 0] + 0.25 * rng.normal(size=2000) > 0).astype(np.int64)
    X_train[y_train == 1] += 1.5
    X_test = rng.normal(size=(10_000, 16))
    X_test[5000:] += 1.5
    return X_train, y_train, X_test


@pytest.fixture(scope="module")
def iforest(blobs):
    return IsolationForest(n_estimators=50, max_samples=256, random_state=0).fit(
        blobs[0]
    )


#: (fit, vectorized call, retained naive reference, minimum speedup).  The
#: tree ensembles must beat their reference by 5x; every other reference only
#: bounds the vectorized path from below (KMeans.predict does the reference's
#: arithmetic in ``block_size``-row blocks, one BLAS call per block, to bound
#: its memory).
_NAIVE_REFERENCES = {
    "DecisionTreeClassifier.predict": (
        lambda X, y: DecisionTreeClassifier(max_depth=8, random_state=0).fit(X, y),
        lambda m: m.predict,
        lambda m: lambda X: m.classes_[m._predict_values_naive(X).argmax(axis=1)],
        5.0,
    ),
    "RandomForestClassifier.predict": (
        lambda X, y: RandomForestClassifier(
            n_estimators=20, max_depth=8, random_state=0
        ).fit(X, y),
        lambda m: m.predict,
        lambda m: lambda X: m.classes_[m._predict_proba_naive(X).argmax(axis=1)],
        5.0,
    ),
    "IsolationForest.score_samples": (
        lambda X, y: IsolationForest(
            n_estimators=50, max_samples=256, random_state=0
        ).fit(X),
        lambda m: m.score_samples,
        lambda m: m._score_samples_naive,
        5.0,
    ),
    "GradientBoostingClassifier.decision_function": (
        lambda X, y: GradientBoostingClassifier(n_estimators=30, random_state=0).fit(X, y),
        lambda m: m.decision_function,
        lambda m: m._decision_function_naive,
        0.5,
    ),
    "LocalOutlierFactor.score_samples": (
        lambda X, y: LocalOutlierFactor(n_neighbors=20, random_state=0).fit(X),
        lambda m: m.score_samples,
        lambda m: m._score_samples_naive,
        0.5,
    ),
    "KMeans.predict": (
        lambda X, y: KMeans(n_clusters=8, n_init=1, random_state=0).fit(X),
        lambda m: m.predict,
        lambda m: lambda X: pairwise_squared_euclidean(X, m.cluster_centers_).argmin(
            axis=1
        ),
        0.5,
    ),
}


@pytest.mark.parametrize("name", sorted(_NAIVE_REFERENCES))
def test_vectorized_path_beats_naive_reference(blobs, name):
    X_train, y_train, X_test = blobs
    fit, fast, naive, min_speedup = _NAIVE_REFERENCES[name]
    model = fit(X_train, y_train)
    fast_fn, naive_fn = fast(model), naive(model)
    speedup = _best_seconds(lambda: naive_fn(X_test)) / _best_seconds(
        lambda: fast_fn(X_test)
    )
    assert speedup >= min_speedup, f"{name}: {speedup:.2f}x vs naive"


def test_service_overhead_over_raw_scoring(iforest):
    rng = np.random.default_rng(1)
    clean = rng.normal(size=(4096, 16))
    poisoned = clean.copy()
    poisoned[rng.choice(4096, size=4096 // 20, replace=False), 0] = np.nan
    raw_s = _best_seconds(lambda: iforest.score_samples(clean))
    service = DetectionService(iforest, sinks=[ListSink()])
    clean_s = _best_seconds(lambda: service.process_batch(clean))
    poison_service = DetectionService(iforest, sinks=[ListSink()])
    poison_s = _best_seconds(lambda: poison_service.process_batch(poisoned))
    # Bookkeeping + the vectorized quarantine scan on top of raw scoring; a
    # large multiple means a Python loop slipped onto the per-batch path.
    assert clean_s / raw_s < 3.0
    # Diverting 5% poison rows (mask, compact, one event) must not double it.
    assert poison_s / clean_s < 2.0


def test_fault_wrapper_and_recovery_costs(iforest, tmp_path):
    sink = ResilientSink(ListSink())
    assert 1.0 / _best_seconds(lambda: sink.emit("event"), inner=1000) > 1e4
    assert 1.0 / _best_seconds(lambda: call_with_retry(lambda: None), inner=1000) > 1e4
    root = tmp_path / "registry"
    registry = ModelRegistry(root)
    for _ in range(4):
        registry.publish(iforest, "bench")
    # A cold start re-verifies every version's checksums once per boot.
    assert _best_seconds(lambda: ModelRegistry(root)) < 5.0


def test_refit_and_swap_costs(iforest):
    window = np.random.default_rng(2).normal(size=(4096, 16))
    policy = FullRefit(
        lambda: IsolationForest(n_estimators=50, max_samples=256, random_state=0)
    )
    candidate = policy.refit(iforest, window)
    # Generous ceiling that still catches an accidental quadratic blow-up.
    assert _best_seconds(lambda: policy.refit(iforest, window)) < 30.0
    service = DetectionService(iforest)
    assert _best_seconds(lambda: service.reload_detector(candidate), inner=100) < 1.0


def test_telemetry_overhead(iforest):
    clean = np.random.default_rng(3).normal(size=(4096, 16))
    services = {
        "off": DetectionService(iforest, telemetry=DISABLED),
        "on": DetectionService(iforest),
        "traced": DetectionService(iforest, tracer=SpanBuffer()),
    }
    for service in services.values():
        service.process_batch(clean)  # warm-up, untimed
    # One batch per service per round, in a rotating order: a slow stretch of
    # a shared host slows the three calls of a round alike, and the median of
    # the per-round ratios cancels it.  Per-batch (not per-row)
    # instrumentation; 1.15 absorbs timer noise.
    names = list(services)
    ratios: dict[str, list[float]] = {"on": [], "traced": []}
    for round_index in range(15):
        seconds = {}
        for name in names[round_index % 3 :] + names[: round_index % 3]:
            start = time.perf_counter()
            services[name].process_batch(clean)
            seconds[name] = time.perf_counter() - start
        for name, per_round in ratios.items():
            per_round.append(seconds[name] / seconds["off"])
    assert np.median(ratios["on"]) < 1.15
    assert np.median(ratios["traced"]) < 1.15


def test_telemetry_unit_costs(iforest):
    registry = MetricsRegistry()

    def _one_span() -> None:
        with trace_span("bench", metrics=registry, rows=1):
            pass

    assert 1.0 / _best_seconds(_one_span, inner=1000) > 1e5

    service = DetectionService(iforest)
    service.run(np.random.default_rng(4).normal(size=(200, 256, 16)))
    metrics = service.metrics_snapshot()
    # A /metrics scrape renders the full snapshot.
    assert _best_seconds(lambda: render_prometheus(metrics)) < 0.1

    summary = service.report().to_dict()
    assert _best_seconds(
        lambda: render_markdown(build_report(summary, metrics=metrics))
    ) < 1.0
