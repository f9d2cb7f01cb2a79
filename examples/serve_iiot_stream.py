"""Serve fitted detectors over a drifting IIoT flow stream.

The deployment story of the paper, end to end:

1. fit an isolation forest and a kNN detector on clean normal traffic and
   fuse them (conflict-aware PCR-style score fusion) into one served model,
2. publish the fused model to an on-disk **model registry** (versioned,
   pickle-free snapshots) and load it back — the scores survive the round
   trip bit for bit,
3. run a **DetectionService** over a drifting ``FlowStream`` with a full
   **model lifecycle**: micro-batched scoring with bounded memory, a rolling
   alert threshold, a **drift monitor**, and a **LifecycleManager** that —
   when drift fires — refits the fused model on the clean recent window
   buffered from the stream itself, gates the candidate's quality, runs a
   **shadow evaluation** (the candidate is double-scored alongside the live
   model for ``--shadow-rounds`` batches and only swaps when the two agree
   on live traffic), then republishes the survivor to the registry as a new
   version and hot-swaps it in — every decision lands in the registry's
   ``history.jsonl`` lineage (each batch is tagged with the model epoch
   that scored it).

Run with::

    python examples/serve_iiot_stream.py [--dataset wustl_iiot] [--scale 0.002]
"""

from __future__ import annotations

import argparse
import tempfile

import numpy as np

from repro.datasets import load_dataset
from repro.datasets.streaming import FlowStream
from repro.novelty import IsolationForest, KNNDetector
from repro.serve import (
    DetectionService,
    DriftEvent,
    DriftMonitor,
    FullRefit,
    FusionDetector,
    LifecycleManager,
    ListSink,
    ModelRegistry,
    ShadowEvaluator,
    WindowBuffer,
)


def make_fused_detector(seed: int) -> FusionDetector:
    """Fresh unfitted fusion ensemble; doubles as the FullRefit factory."""
    return FusionDetector(
        [
            IsolationForest(n_estimators=50, random_state=seed),
            KNNDetector(n_neighbors=10, random_state=seed),
        ],
        combine="pcr",
    )


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="wustl_iiot")
    parser.add_argument("--scale", type=float, default=0.002)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--drift-strength", type=float, default=2.5)
    parser.add_argument("--registry", default=None,
                        help="registry directory (default: a temporary directory)")
    parser.add_argument("--refit-window", type=int, default=2048,
                        help="clean-window buffer capacity refits train on")
    parser.add_argument("--shadow-rounds", type=int, default=3,
                        help="batches a gate-passed candidate shadows the live "
                        "model before the agreement verdict (0 = swap "
                        "immediately after the quality gate)")
    parser.add_argument("--seed", type=int, default=0)
    # accepted for interface parity with the other examples' smoke tests
    parser.add_argument("--experiences", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--epochs", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    normal = dataset.normal_data()
    print(
        f"{dataset.name}: {dataset.n_samples} flows "
        f"({normal.shape[0]} clean-normal for fitting)"
    )

    # 1. Fit two heterogeneous detectors and fuse their normalized scores.
    fused = make_fused_detector(args.seed).fit(normal)

    # 2. Publish to a registry and serve the *loaded* snapshot.
    registry_dir = args.registry or tempfile.mkdtemp(prefix="repro-registry-")
    registry = ModelRegistry(registry_dir)
    info = registry.publish(
        fused, f"fusion-{dataset.name}", metadata={"dataset": dataset.name}
    )
    served = registry.load(info.name)
    check = dataset.X[:256]
    assert np.array_equal(served.score_samples(check), fused.score_samples(check))
    print(f"published + reloaded {info.name} v{info.version} (scores bit-identical)")

    # 3. Serve a drifting stream with rolling thresholds and a full lifecycle:
    # clean below-threshold rows feed a bounded window buffer; when drift
    # fires, a fresh fusion ensemble is refit on that window, quality-gated,
    # republished (v2, v3, ...) and hot-swapped into the service.  No
    # explicit drift reference: the monitor calibrates itself on the first
    # min_samples streamed flows and flags when the stream departs from that.
    sink = ListSink()
    shadow = (
        ShadowEvaluator(rounds=args.shadow_rounds, min_agreement=0.5)
        if args.shadow_rounds > 0
        else None
    )
    lifecycle = LifecycleManager(
        FullRefit(lambda: make_fused_detector(args.seed)),
        buffer=WindowBuffer(args.refit_window),
        registry=registry,
        model_name=info.name,
        min_refit_rows=512,
        serving_version=info.version,
        shadow=shadow,
    )
    service = DetectionService(
        served,
        threshold="rolling",
        rolling_quantile=0.95,
        drift_monitor=DriftMonitor(window=1024, threshold=0.5, min_samples=512),
        sinks=[sink],
        lifecycle=lifecycle,
    )
    stream = FlowStream(
        dataset,
        batch_size=args.batch_size,
        drift_strength=args.drift_strength,
        random_state=args.seed,
    )
    print(
        f"\nserving {stream.n_batches} batches of {args.batch_size} flows "
        f"(drift strength {args.drift_strength}) ...\n"
    )
    report = service.run(stream)
    print(report.summary())

    drift_events = [event for event in sink.events if isinstance(event, DriftEvent)]
    for event in drift_events:
        print(
            f"  drift @ batch {event.batch_index}: score shift "
            f"{event.report.score_shift:.2f}σ, feature shift "
            f"{event.report.feature_shift:.2f}σ"
        )
    for event in lifecycle.events:
        outcome = "hot-swapped" if event.swapped else "kept current model"
        version = (
            f" as v{event.published_version}"
            if event.published_version is not None
            else ""
        )
        agreement = (
            f" [{event.shadow.describe()}]" if event.shadow is not None else ""
        )
        print(
            f"  lifecycle: {event.action} on {event.n_window_rows} clean rows"
            f"{version} -> {outcome} (epoch {event.epoch}){agreement}"
        )
    if not lifecycle.events:
        print("  lifecycle: no drift fired; model unchanged")
    elif lifecycle.shadow_pending():
        print("  lifecycle: stream ended with a shadow trial still running "
              "(candidate neither promoted nor rejected)")
    history = registry.history(info.name)
    if history:
        print(f"  lineage: {len(history)} event(s) in "
              f"{registry.history_path(info.name)}")
    alert_rate = report.n_alerts / max(report.n_samples, 1)
    print(f"\nalert rate: {alert_rate:.1%} of flows (rolling 95% threshold)")
    print(
        f"registry at {registry_dir}: "
        f"{ {name: registry.versions(name) for name in registry.models()} }"
    )


if __name__ == "__main__":
    main()
