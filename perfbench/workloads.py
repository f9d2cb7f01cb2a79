"""The four benchmark workloads, driven through the library's public API.

Each workload builds its inputs from the seed (set-up, timed on its own and
repeated), then measures closed-loop work until the time budget is spent:

* ``serve-cndids`` / ``serve-iforest`` / ``refit-iforest`` replay one
  pre-built, poisoned X-IIoTID stream through :class:`DetectionService`
  pass after pass (a fresh service, sink and registry per pass, so every
  pass does identical work and repeats the same counts);
* ``train-cndids`` repeats Algorithm 1 (:func:`run_continual_method`) on
  one pre-built scenario.

Every timed call is host-normalised (:mod:`hostclock`): a fixed probe runs
next to it, untimed, and the call's time is reported in probe units.  Every
pass or repeat is checked (see ``README.md``); every failed check is
counted in ``failed``.  With tracing on, the first half of the budget runs
untraced and the second half runs with :class:`LayerTracer` wrappers, so the
tracing overhead is measured inside the same run.
"""

from __future__ import annotations

import ctypes
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.core import model as cndids_module
from repro.core.cfe import ContinualFeatureExtractor
from repro.continual.scenario import ContinualScenario
from repro.core.model import CNDIDS
from repro.datasets.registry import load_dataset
from repro.datasets.streaming import FlowStream
from repro.experiments import protocol
from repro.experiments.config import ExperimentConfig
from repro.experiments.protocol import run_continual_method
from repro.experiments.runner import build_continual_method
from repro.metrics.classification import f1_score
from repro.metrics.ranking import pr_auc_score
from repro.ml import native
from repro.ml.kmeans import KMeans
from repro.ml.pca import PCA
from repro.ml.scalers import StandardScaler
from repro.nn.losses import TripletMarginLoss
from repro.nn.optim import Adam
from repro.novelty import IsolationForest
from repro.serve import service as service_module
from repro.serve.drift import DriftMonitor
from repro.serve.lifecycle import FullRefit, LifecycleManager, QualityGate, WindowBuffer
from repro.serve.registry import ModelRegistry
from repro.serve.service import DetectionService
from repro.serve.sinks import JsonlSink, read_events

from hostclock import LONG_CALL_PROBES, PROBE_REF_S, Stopwatch, normalised, probe
from tracing import LayerTracer

DATASET = "xiiotid"
#: The served stream: X-IIoTID at a quarter of its size (~205k rows x 56).
STREAM_SCALE = 0.25
#: The training scenario (serving models are fit on its experience 0).
TRAIN_SCALE = 0.02
#: train-cndids trains on this many scenarios in turn, drawn from the seeds
#: ``seed * TRAIN_SCENARIOS + j``.  Training cost depends on the data (triplet
#: mining loops longer over mixed pseudo-labels), so a single draw per seed
#: would spread train-cndids' timings by the luck of that draw.
TRAIN_SCENARIOS = 3
#: Seed of the family-to-experience split of the training scenario.
SPLIT_SEED = 0
POISON_FRACTION = 0.01
#: Service scores vs one-shot ``score_samples``: encoder matmuls may differ
#: in the last bits with the batch shape.
SCORE_RTOL = 1e-9
#: Rows (about) per re-scoring call in the equivalence check.
CHECK_BLOCK = 8192
#: Quality vs the values stored per seed in ``reference.json``.
QUALITY_RTOL = 0.02
#: ``reference.json`` holds every workload's quality for ``--seed`` 0 to
#: ``REFERENCE_SEEDS - 1`` (train-cndids: scenario seeds 0 to
#: ``REFERENCE_SEEDS * TRAIN_SCENARIOS - 1``).
REFERENCE_SEEDS = 32
#: Largest share of the traced loop wall time the layers may leave unexplained.
UNACCOUNTED_TOL = 0.05
SETUP_REPEATS = {"serve": 3, "train": 5}
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Self-time layers as ``(layer, owner, attribute)``; a layer may wrap several
#: callables.  Metric ``<layer>_ms``.  Together the layers cover the whole
#: traced loop; ``trace.unaccounted_frac`` checks that.
LAYERS: tuple[tuple[str, Any, str], ...] = (
    ("service.self", DetectionService, "process_batch"),
    ("scaler.transform", StandardScaler, "transform"),
    ("cfe.encode", ContinualFeatureExtractor, "encode"),
    ("pca.reconstruction_error", PCA, "reconstruction_error"),
    ("cndids.score", CNDIDS, "score_samples"),
    ("forest.score", IsolationForest, "score_samples"),
    ("native.forest_sum", native, "forest_sum"),
    ("threshold.quantile", service_module, "quantile_threshold"),
    ("drift.update", DriftMonitor, "update"),
    ("sinks.emit", JsonlSink, "emit"),
    ("lifecycle.observe", LifecycleManager, "observe_batch"),
    ("lifecycle.react", LifecycleManager, "handle_drift"),
    ("lifecycle.refit", FullRefit, "refit"),
    ("lifecycle.gate", QualityGate, "evaluate"),
    ("registry.publish", ModelRegistry, "publish"),
    ("cndids.setup", CNDIDS, "setup"),
    ("cndids.fit_experience", CNDIDS, "fit_experience"),
    ("losses.pseudo_label", cndids_module, "compute_pseudo_labels"),
    ("kmeans.fit", KMeans, "fit"),
    ("nn.triplet_mine", TripletMarginLoss, "mine_triplets"),
    ("cfe.fit_experience", ContinualFeatureExtractor, "fit_experience"),
    ("nn.adam_step", Adam, "step"),
    ("pca.fit", PCA, "fit"),
    ("eval.threshold", CNDIDS, "predict"),
    ("eval.metrics", protocol, "f1_score"),
    ("eval.metrics", protocol, "pr_auc_score"),
)
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))

#: Per-pass counts of the serving workloads.
COUNTS = (
    "batches", "rows.scored", "rows.quarantined", "alerts", "drift.events",
    "sinks.events", "lifecycle.refits", "lifecycle.swaps",
)


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    attempted: int = 0
    failed: int = 0
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)


def reset_peak_rss() -> bool:
    """Restart the kernel's resident-memory high-water mark (``VmHWM``).

    Freed memory is first handed back to the kernel (``malloc_trim``): what
    the allocator keeps from the harness's own work would otherwise count or
    not by the luck of glibc's trimming (one serve-cndids run read 197 MB
    where others read 267 MB).  Returns False where the mark cannot be
    restarted; :func:`peak_rss_mb` then reads the peak of the whole process.
    """
    gc.collect()
    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
        malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
        malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: nothing to trim
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """Peak resident memory in MB since the last :func:`reset_peak_rss`."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_stored(workload: str, seed: int, quality: dict[str, float]) -> int:
    """Mismatches of ``quality`` against the values stored for ``seed``."""
    expected = json.loads(REFERENCE_PATH.read_text()).get(workload, {}).get(str(seed))
    if expected is None:
        print(
            f"warning: reference.json stores no {workload} quality for seed {seed} "
            f"(it covers --seed 0-{REFERENCE_SEEDS - 1}); quality not checked",
            file=sys.stderr,
        )
        return 0
    mismatches = sum(
        1
        for key, value in expected.items()
        if not np.isclose(quality[key], value, rtol=QUALITY_RTOL, atol=0.0)
    )
    if mismatches:
        print(f"check failed: {workload} seed {seed} quality {quality} vs stored {expected}",
              file=sys.stderr)
    return mismatches


def _no_lap() -> None:
    pass


def _median_setup(
    build: Callable[[Callable[[], None]], Any], repeats: int
) -> tuple[Any, float, float]:
    """Run ``build(lap)`` ``repeats`` times.

    ``build`` calls ``lap`` between its steps, so that each step is
    normalised by the probes next to it.  Returns the last result and the
    median normalised and raw times.
    """
    normal, raw, built = [], [], None
    for _ in range(repeats):
        built = None  # release the previous inputs before building new ones
        watch = Stopwatch()
        built = build(watch.lap)
        watch.lap()
        normal.append(watch.seconds)
        raw.append(watch.raw_seconds)
    return built, statistics.median(normal), statistics.median(raw)


def _per_call(costs: list[np.ndarray]) -> np.ndarray:
    """Each call's median normalised time over the passes (or cycles) that repeated it.

    Every pass replays the same calls on the same inputs, so a call's
    deterministic cost, a refit stall included, is in every repeat of it; a
    cost that lands on one repeat only (a garbage collection, say) is not.
    """
    return np.median(np.vstack(costs), axis=0)


def _latency_metrics(per_call: np.ndarray) -> dict[str, float]:
    """Median and p90 in ms of the calls' normalised times (see :func:`_per_call`).

    p90, not p95 or p99: on refit-iforest the 3.5 % swap batches already
    push p95 to the 98.4th percentile of the other batches; the stalls
    themselves show in ``rows_per_s``.
    """
    p50, p90 = np.percentile(per_call, [50.0, 90.0])
    return {"batch_p50_ms": 1e3 * float(p50), "batch_p90_ms": 1e3 * float(p90)}


def _layer_metrics(tracer: LayerTracer, n_units: int, stats: dict) -> dict[str, float]:
    """Per-layer self time (ms per pass/repeat) from the traced phase."""
    per = max(n_units, 1)
    metrics = {f"{layer}_ms": 1e3 * tracer.self_s.get(layer, 0.0) / per for layer in LAYER_NAMES}
    # Inclusive views of the protocol's evaluation calls (not reconciled).
    metrics["eval.predict_ms"] = 1e3 * sum(
        s for (layer, _), s in tracer.inclusive_s.items() if layer == "eval.threshold"
    ) / per
    metrics["eval.score_ms"] = 1e3 * tracer.inclusive_s.get(("cndids.score", None), 0.0) / per
    rows = stats["native_rows"]
    metrics["native.parallel_rows_frac"] = stats["native_parallel_rows"] / rows if rows else 0.0
    metrics["cfe.train_steps"] = tracer.calls.get("nn.adam_step", 0) / per
    ks = stats["chosen_k"]
    metrics["losses.chosen_k"] = float(np.mean(ks)) if ks else 0.0
    return metrics


def _install_layers(tracer: LayerTracer, stats: dict) -> None:
    def count_rows(args: tuple, _result: Any) -> None:
        n = int(args[0].shape[0])
        stats["native_rows"] += n
        if n >= native.MIN_PARALLEL_ROWS:
            stats["native_parallel_rows"] += n

    def record_k(_args: tuple, result: Any) -> None:
        stats["chosen_k"].append(int(result[1].n_clusters))

    hooks = {"native.forest_sum": count_rows, "losses.pseudo_label": record_k}
    for layer, owner, attr in LAYERS:
        tracer.wrap(owner, attr, layer, on_call=hooks.get(layer))


def _measure(
    seconds: float, trace: bool, run_one: Callable[[int], Any], cycle: int = 1
) -> tuple[list[tuple[bool, Any]], LayerTracer, dict]:
    """Call ``run_one(index)`` in whole cycles until the budget is spent.

    A new cycle starts only while at least half a cycle's time is left, so a
    phase overshoots its budget by at most half a cycle.  Untraced, every
    unit runs plain.  Traced, the first half of the budget runs plain and
    the second half with the layer wrappers recording (at least one cycle
    each).  Returns ``[(traced, unit), ...]``, the tracer and the counts its
    hooks gathered.
    """
    tracer = LayerTracer()
    stats: dict = {"native_rows": 0, "native_parallel_rows": 0, "chosen_k": []}
    units: list[tuple[bool, Any]] = []

    def run_phase(budget: float, traced: bool) -> None:
        tracer.active = traced
        try:
            start, first = perf_counter(), len(units)
            while True:
                done = len(units) - first
                if done and done % cycle == 0:
                    elapsed = perf_counter() - start
                    if elapsed + 0.5 * elapsed / (done // cycle) >= budget:
                        break
                units.append((traced, run_one(len(units))))
        finally:
            tracer.active = False

    with tracer:
        run_phase(seconds / 2.0 if trace else seconds, False)
        if trace:
            _install_layers(tracer, stats)
            run_phase(seconds / 2.0, True)
    return units, tracer, stats


def _trace_summary(
    outcome: Outcome,
    tracer: LayerTracer,
    stats: dict,
    units: list,
    rate_of: Callable[[list], float],
    wall_of: Callable[[Any], float],
) -> None:
    traced = [u for is_traced, u in units if is_traced]
    plain = [u for is_traced, u in units if not is_traced]
    loop_wall = sum(wall_of(u) for u in traced)
    unaccounted = 1.0 - tracer.total_self_s() / loop_wall
    outcome.layers.update(_layer_metrics(tracer, len(traced), stats))
    outcome.layers["trace.unaccounted_frac"] = unaccounted
    outcome.layers["trace.overhead_frac"] = 1.0 - rate_of(traced) / rate_of(plain)
    if abs(unaccounted) > UNACCOUNTED_TOL:
        print(
            f"check failed: layers explain {1.0 - unaccounted:.1%} of the traced "
            f"loop (tolerance {UNACCOUNTED_TOL:.0%})",
            file=sys.stderr,
        )
        outcome.failed += 1


# -- serving workloads ----------------------------------------------------------
@dataclass(frozen=True)
class ServeSpec:
    detector: str
    batch_size: int
    drift_strength: float = 0.0
    refit: bool = False


SERVE_SPECS = {
    "serve-cndids": ServeSpec("cndids", 1024),
    "serve-iforest": ServeSpec("iforest", 256),
    "refit-iforest": ServeSpec("iforest", 1024, drift_strength=3.0, refit=True),
}


def _make_forest() -> IsolationForest:
    return IsolationForest(n_estimators=100, random_state=0)


@dataclass
class StreamInputs:
    batches: list[np.ndarray]
    labels: np.ndarray
    poison: np.ndarray  # sorted stream positions of the NaN-poisoned rows
    model: Any
    ref_X: np.ndarray
    ref_scores: np.ndarray


def build_train_scenario(config: ExperimentConfig) -> ContinualScenario:
    """The X-IIoTID scenario of ``config``, split into experiences by ``SPLIT_SEED``.

    The seed draws the dataset; the family-to-experience split stays fixed so
    that every seed trains experiences of the same sizes.
    """
    return ContinualScenario.from_dataset(
        load_dataset(DATASET, scale=config.scale, seed=config.seed),
        n_experiences=config.n_experiences(DATASET),
        clean_normal_fraction=config.clean_normal_fraction,
        test_fraction=config.test_fraction,
        calibration_size=config.calibration_size,
        seed=SPLIT_SEED,
    )


def build_stream_inputs(
    spec: ServeSpec, seed: int, lap: Callable[[], None] = _no_lap
) -> StreamInputs:
    """Dataset, poisoned stream batches and the fitted model for ``seed``.

    ``lap`` is called between the steps (see :func:`_median_setup`).
    """
    config = ExperimentConfig(scale=TRAIN_SCALE, seed=seed)
    scenario = build_train_scenario(config)
    lap()
    dataset = load_dataset(DATASET, scale=STREAM_SCALE, seed=seed)
    lap()
    stream = FlowStream(
        dataset,
        batch_size=spec.batch_size,
        drift_strength=spec.drift_strength,
        random_state=seed,
    )
    X = stream.X  # a fresh permuted copy owned by the stream: poison in place
    rng = np.random.default_rng([seed, 1])
    n_rows, n_features = X.shape
    poison = np.sort(rng.choice(n_rows, size=int(POISON_FRACTION * n_rows), replace=False))
    X[poison, rng.integers(0, n_features, size=poison.size)] = np.nan
    lap()
    if spec.detector == "cndids":
        model = build_continual_method("CND-IDS", scenario.n_features, config)
        model.setup(scenario.clean_normal)
        lap()
        model.fit_experience(scenario[0].X_train)
    else:
        model = _make_forest().fit(scenario.clean_normal)
    lap()
    return StreamInputs(
        batches=[X[i : i + spec.batch_size] for i in range(0, n_rows, spec.batch_size)],
        labels=stream.y,
        poison=poison,
        model=model,
        ref_X=scenario.clean_normal,
        ref_scores=model.score_samples(scenario.clean_normal),
    )


@dataclass
class ServePass:
    wall_s: float  # the loop's wall time, probes excluded
    latencies: np.ndarray
    costs: np.ndarray  # host-normalised latencies
    swap_batches: list[int]
    counts: dict[str, int]
    failed: int


def run_serve_pass(
    spec: ServeSpec, inputs: StreamInputs, workdir: Path, index: int, ref: dict
) -> ServePass:
    """One closed-loop pass over the stream, then its correctness checks.

    ``ref`` is filled by pass 0 (scores per batch, counts, quality) and
    compared against by every later pass.
    """
    sink_path = workdir / "events.jsonl"
    sink = JsonlSink(sink_path)
    monitor = DriftMonitor().set_reference(inputs.ref_scores, inputs.ref_X)
    lifecycle = None
    if spec.refit:
        lifecycle = LifecycleManager(
            FullRefit(_make_forest),
            buffer=WindowBuffer(4096),
            registry=ModelRegistry(workdir / "registry"),
            model_name=f"iforest-{DATASET}",
        )
    svc = DetectionService(
        inputs.model,
        threshold="rolling",
        drift_monitor=monitor,
        sinks=[sink],
        lifecycle=lifecycle,
    )
    batches = inputs.batches
    n_batches = len(batches)
    latencies = np.empty(n_batches)
    probes = np.empty(n_batches)
    results: list[Any] = [None] * n_batches
    models = {0: svc.detector}
    swap_batches: list[int] = []
    failed = 0
    start = perf_counter()
    for i, X in enumerate(batches):
        probes[i] = probe()
        t0 = perf_counter()
        try:
            results[i] = svc.process_batch(X)
        except Exception:  # a raising batch is a counted failure, not a crash
            traceback.print_exc(file=sys.stderr)
            failed += 1
        latencies[i] = perf_counter() - t0
        if svc.epoch_ not in models:
            models[svc.epoch_] = svc.detector
            swap_batches.append(i)
    wall = perf_counter() - start - float(probes.sum())
    sink.close()
    if svc.n_disabled_sinks_:
        failed += svc.n_disabled_sinks_

    ok = [r for r in results if r is not None]
    counts = {
        "batches": n_batches,
        "rows.scored": sum(r.n_samples for r in ok),
        "rows.quarantined": sum(len(r.quarantined) for r in ok),
        "alerts": sum(r.n_alerts for r in ok),
        "drift.events": sum(1 for r in ok if r.drift is not None and r.drift.drifted),
        "lifecycle.refits": (lifecycle.n_refits_ + lifecycle.n_rejected_) if lifecycle else 0,
        "lifecycle.swaps": len(swap_batches),
    }
    expected_events = counts["alerts"] + counts["drift.events"] + sum(
        1 for r in ok if r.quarantined
    )
    counts["sinks.events"] = len(read_events(sink_path)) if sink_path.exists() else 0
    failed += abs(counts["sinks.events"] - expected_events)
    failed += _check_rows(spec, inputs, results)
    if not ref:
        failed += _check_against_one_shot(inputs, results, models)
        _store_reference(ref, inputs, results, counts)
    else:
        failed += sum(
            1
            for r, expected in zip(results, ref["scores"])
            if r is not None and not np.allclose(r.scores, expected, rtol=SCORE_RTOL, atol=0.0)
        )
        if counts != ref["counts"]:
            print(f"check failed: pass {index} counts {counts} != {ref['counts']}", file=sys.stderr)
            failed += 1
    costs = normalised(latencies, probes)
    return ServePass(wall, latencies, costs, swap_batches, counts, failed)


def _check_rows(spec: ServeSpec, inputs: StreamInputs, results: list) -> int:
    """Every row is scored or quarantined; quarantine hits exactly the poison."""
    failed = 0
    size = spec.batch_size
    bounds = np.searchsorted(inputs.poison, np.arange(0, len(results) + 1) * size)
    for i, (r, X) in enumerate(zip(results, inputs.batches)):
        if r is None:
            continue
        expected = inputs.poison[bounds[i] : bounds[i + 1]] - i * size
        lost = r.n_samples + len(r.quarantined) != X.shape[0]
        if lost or not np.array_equal(np.asarray(r.quarantined, dtype=np.int64), expected):
            failed += 1
    if failed:
        print(f"check failed: {failed} batches lost rows or missed poison", file=sys.stderr)
    return failed


def _check_against_one_shot(inputs: StreamInputs, results: list, models: dict) -> int:
    """Service scores equal re-scoring per served model in other batch shapes.

    The batches a model served are re-scored a group at a time: the clean
    rows of about ``CHECK_BLOCK // batch_size`` batches in one call.  Only one
    group's rows and encoder activations are held at once.
    """
    per_group = max(1, CHECK_BLOCK // inputs.batches[0].shape[0])
    failed = 0
    for epoch, model in models.items():
        idx = [i for i, r in enumerate(results) if r is not None and r.model_epoch == epoch]
        for first in range(0, len(idx), per_group):
            group = idx[first : first + per_group]
            clean = [inputs.batches[i][np.isfinite(inputs.batches[i]).all(axis=1)] for i in group]
            one_shot = model.score_samples(np.vstack(clean))
            offsets = np.cumsum([0] + [rows.shape[0] for rows in clean])
            for k, i in enumerate(group):
                expected = one_shot[offsets[k] : offsets[k + 1]]
                if not np.allclose(results[i].scores, expected, rtol=SCORE_RTOL, atol=0.0):
                    failed += 1
    if failed:
        print(f"check failed: {failed} batches differ from one-shot scoring", file=sys.stderr)
    return failed


def _store_reference(ref: dict, inputs: StreamInputs, results: list, counts: dict) -> None:
    ok = [(i, r) for i, r in enumerate(results) if r is not None]
    size = len(inputs.batches[0])
    y = np.concatenate(
        [
            inputs.labels[i * size : (i + 1) * size][np.isfinite(inputs.batches[i]).all(axis=1)]
            for i, _ in ok
        ]
    )
    ref["scores"] = [r.scores if r is not None else None for r in results]
    ref["counts"] = counts
    ref["alert_f1"] = f1_score(y, np.concatenate([r.predictions for _, r in ok]))
    ref["pr_auc"] = pr_auc_score(y, np.concatenate([r.scores for _, r in ok]))


def serve_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    spec = SERVE_SPECS[name]
    inputs, setup_s, setup_raw_s = _median_setup(
        lambda lap: build_stream_inputs(spec, seed, lap), SETUP_REPEATS["serve"]
    )
    peaks = {"setup_peak_rss_mb": peak_rss_mb(), "peak_rss_reset": reset_peak_rss()}
    ref: dict = {}
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))

    def run_one(index: int) -> ServePass:
        if index == 1:
            # Pass 0 re-scores the stream for its checks; from here on the
            # memory peak is the service's alone.
            peaks["pass0_peak_rss_mb"] = peak_rss_mb()
            reset_peak_rss()
        try:
            return run_serve_pass(spec, inputs, workdir / str(index), index, ref)
        finally:
            shutil.rmtree(workdir / str(index), ignore_errors=True)

    try:
        units, tracer, stats = _measure(seconds, trace, run_one)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [u for _, u in units]
    plain = [u for traced, u in units if not traced]
    outcome = Outcome(
        attempted=sum(len(p.latencies) for p in passes),
        failed=sum(p.failed for p in passes)
        + _check_stored(name, seed, {"alert_f1": ref["alert_f1"], "pr_auc": ref["pr_auc"]}),
    )
    per_batch = _per_call([p.costs for p in plain])

    def rate(ps: list) -> float:
        """Rows per pass over the sum of the batches' normalised times."""
        return ref["counts"]["rows.scored"] / float(_per_call([p.costs for p in ps]).sum())

    stalls = per_batch[plain[0].swap_batches]
    pass_rates = [p.counts["rows.scored"] / p.wall_s for p in plain]
    probe_us = 1e6 * PROBE_REF_S * np.median(
        np.concatenate([p.latencies / p.costs for p in plain])
    )
    outcome.e2e = {
        "setup_s": setup_s,
        "rows_per_s": rate(plain),
        **_latency_metrics(per_batch),
        "alert_f1": ref["alert_f1"],
        "pr_auc": ref["pr_auc"],
    }
    outcome.notes = {
        "setup_raw_s": setup_raw_s,
        "probe_median_us": probe_us,
        "pass_rows_per_s": [round(r) for r in pass_rates],
        "median_pass_rows_per_s": statistics.median(pass_rates),
        "all_batches_p50_ms": 1e3 * float(np.median(np.concatenate([p.latencies for p in plain]))),
        "passes": len(passes),
        "latency_samples": int(per_batch.size),
        "swap_stall_ms": 1e3 * float(np.median(stalls)) if stalls.size else 0.0,
        "swap_samples": int(stalls.size),
        **peaks,
    }
    outcome.layers = {name_: float(v) for name_, v in ref["counts"].items()}
    outcome.layers["lifecycle.accept_frac"] = (
        ref["counts"]["lifecycle.swaps"] / ref["counts"]["lifecycle.refits"]
        if ref["counts"]["lifecycle.refits"]
        else 0.0
    )
    outcome.layers["lifecycle.swap_stall_ms"] = outcome.notes["swap_stall_ms"]
    if trace:
        _trace_summary(outcome, tracer, stats, units, rate, lambda p: p.wall_s)
        tracer.write_spans(out_dir / f"spans-{name}-seed{seed}.jsonl")
    return outcome


# -- training workload --------------------------------------------------------------
@dataclass
class TrainRepeat:
    wall_s: float
    train_s: float
    fit_s: np.ndarray  # host-normalised, one per experience
    predict_s: np.ndarray  # host-normalised, one per protocol evaluation call
    rows: int
    quality: dict[str, float]
    pca_rank: int


def run_train_repeat(config: ExperimentConfig, scenario: Any) -> TrainRepeat:
    """Algorithm 1 once: every experience trained, every test split evaluated.

    Each ``fit_experience`` and each evaluation ``predict`` call is timed
    from outside and normalised by the probes taken just before and after it.
    The predict calls are the workload's batches (a test split scored and
    thresholded by the model trained so far).
    """
    method = build_continual_method("CND-IDS", scenario.n_features, config)
    times: dict[str, list[float]] = {"fit_experience": [], "predict": []}
    probe_s = [0.0]

    def timed(name: str) -> Callable[..., Any]:
        call = getattr(method, name)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            probe_start = perf_counter()
            before = probe(LONG_CALL_PROBES)
            start = perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                end = perf_counter()
                after = probe(LONG_CALL_PROBES)
                probe_s[0] += (start - probe_start) + (perf_counter() - end)
                times[name].append(normalised(end - start, 0.5 * (before + after)))

        return wrapper

    for name in times:
        setattr(method, name, timed(name))
    start = perf_counter()
    result = run_continual_method(method, scenario)
    wall = perf_counter() - start - probe_s[0]
    return TrainRepeat(
        wall_s=wall,
        train_s=result.train_time_s,
        fit_s=np.array(times["fit_experience"]),
        predict_s=np.array(times["predict"]),
        rows=sum(e.n_train for e in scenario),
        quality={
            "avg_f1": result.avg_f1,
            "avg_prauc": result.avg_prauc,
            "fwd_transfer": result.fwd_transfer,
        },
        pca_rank=int(method.pca_.n_components_),
    )


def _check_quality(seeds: list[int], repeats: list[TrainRepeat]) -> int:
    """Every cycle repeats the first one, which matches the stored values."""
    first = [r.quality for r in repeats[: len(seeds)]]
    failed = sum(
        1
        for i, r in enumerate(repeats)
        for key, value in r.quality.items()
        if not np.isclose(value, first[i % len(seeds)][key], rtol=SCORE_RTOL, atol=0.0)
    )
    return failed + sum(
        _check_stored("train-cndids", sub_seed, quality) for sub_seed, quality in zip(seeds, first)
    )


def train_workload(seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    seeds = [seed * TRAIN_SCENARIOS + j for j in range(TRAIN_SCENARIOS)]
    configs = [ExperimentConfig(scale=TRAIN_SCALE, seed=s) for s in seeds]
    def build(lap: Callable[[], None]) -> list[ContinualScenario]:
        scenarios = []
        for config in configs:
            scenarios.append(build_train_scenario(config))
            lap()
        return scenarios

    scenarios, setup_s, setup_raw_s = _median_setup(build, SETUP_REPEATS["train"])
    peaks = {"setup_peak_rss_mb": peak_rss_mb(), "peak_rss_reset": reset_peak_rss()}
    units, tracer, stats = _measure(
        seconds,
        trace,
        lambda i: run_train_repeat(configs[i % len(seeds)], scenarios[i % len(seeds)]),
        cycle=len(seeds),
    )
    repeats = [u for _, u in units]
    plain = [u for traced, u in units if not traced]
    outcome = Outcome(
        attempted=sum(len(r.predict_s) for r in repeats),
        failed=_check_quality(seeds, repeats),
    )

    def per_call(rs: list, key: str) -> np.ndarray:
        """Per call, the median normalised time over the cycles; scenario after scenario."""
        per_scenario = [rs[j :: len(seeds)] for j in range(len(seeds))]
        return np.concatenate([_per_call([getattr(r, key) for r in s]) for s in per_scenario])

    predict_s = per_call(plain, "predict_s")

    def rate(rs: list) -> float:
        """Training rows of a cycle over the sum of the experiences' normalised fit times."""
        return sum(r.rows for r in rs[: len(seeds)]) / float(per_call(rs, "fit_s").sum())

    def mean(key: str) -> float:
        return float(np.mean([r.quality[key] for r in repeats[: len(seeds)]]))

    outcome.e2e = {
        "setup_s": setup_s,
        "rows_per_s": rate(plain),
        **_latency_metrics(predict_s),
        "alert_f1": mean("avg_f1"),
        "pr_auc": mean("avg_prauc"),
    }
    outcome.notes = {
        "setup_raw_s": setup_raw_s,
        "repeats": len(repeats),
        "cycle_rows_per_s": [
            round(sum(r.rows for r in c) / sum(r.train_s for r in c))
            for c in (plain[i : i + len(seeds)] for i in range(0, len(plain), len(seeds)))
        ],
        "latency_samples": int(predict_s.size),
        "train_s": statistics.median(r.train_s for r in plain),
        "fwd_transfer": mean("fwd_transfer"),
        **peaks,
    }
    outcome.layers = {
        "train.train_s": outcome.notes["train_s"],
        "train.fwd_transfer": outcome.notes["fwd_transfer"],
        "pca.rank": float(np.mean([r.pca_rank for r in repeats[: len(seeds)]])),
    }
    if trace:
        _trace_summary(outcome, tracer, stats, units, rate, lambda r: r.wall_s)
        tracer.write_spans(out_dir / f"spans-train-cndids-seed{seed}.jsonl")
    return outcome


WORKLOADS = ("serve-cndids", "serve-iforest", "refit-iforest", "train-cndids")


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    if name == "train-cndids":
        return train_workload(seed, seconds, trace, out_dir)
    return serve_workload(name, seed, seconds, trace, out_dir)
