"""CLI for the serving subsystem: ``repro serve ...`` and ``repro registry ...``.

Usage examples::

    # fit a detector on the clean traffic of a synthetic dataset and serve a
    # drifted stream built from the same dataset
    repro serve --dataset wustl_iiot --scale 0.002 --detector iforest \
        --drift-strength 2.0 --threshold rolling

    # publish the fitted model and serve from the registry afterwards
    repro serve --dataset wustl_iiot --detector lof --registry ./models --publish
    repro serve --dataset wustl_iiot --registry ./models --model lof-wustl_iiot

    # online refit: on drift, refit from the clean recent window, gate,
    # republish and hot-swap
    repro serve --dataset wustl_iiot --detector iforest --threshold rolling \
        --registry ./models --publish --refit full --refit-window 4096

    # reload on drift: swap in the registry's pinned or latest version,
    # never the version that is already serving
    repro serve --dataset wustl_iiot --registry ./models \
        --model iforest-wustl_iiot --refit reload

    # inspect / pin / prune registry contents, audit the swap lineage
    repro registry list --registry ./models
    repro registry pin lof-wustl_iiot 1 --registry ./models
    repro registry gc --keep 3 --registry ./models
    repro registry history iforest-wustl_iiot --registry ./models

    # chaos-test the fault tolerance with deterministic injected faults
    # (grammar in repro.serve.faults), and scan/quarantine corrupt versions
    repro serve --dataset wustl_iiot --detector iforest \
        --inject-faults 'sink_raise@every=1;nan_rows@rate=0.05'
    repro registry recover --registry ./models

    # observability: per-stage span traces and an auditable run directory
    # (events.jsonl + run_summary.json + trace.jsonl + report.json/.md);
    # `serve report` re-renders the report after the fact, `repro trace`
    # prints the per-stage span table and is the p95 latency budget gate
    repro serve --dataset wustl_iiot --detector iforest \
        --trace-file ./trace.jsonl --run-dir ./run
    repro serve report ./run
    repro trace ./run/trace.jsonl --budget batch=100

    # live introspection: /metrics (Prometheus), /health (heartbeat
    # watchdog), /status (JSON summary)
    repro serve --dataset wustl_iiot --detector iforest \
        --status-port 9178 --health-deadline 30

(``repro`` is the console script registered in ``pyproject.toml``; the same
commands work as ``python -m repro.experiments.cli ...``.)
"""

from __future__ import annotations

import argparse
import json
import signal
from pathlib import Path

from repro.datasets.registry import load_dataset
from repro.datasets.streaming import FlowStream
from repro.novelty import (
    IsolationForest,
    LocalOutlierFactor,
    MahalanobisDetector,
    OneClassSVM,
    PCAReconstructionDetector,
)
from repro.serve.drift import DriftMonitor
from repro.serve.faults import FaultInjector, wrap_sinks
from repro.serve.lifecycle import (
    ContinualRefit,
    FullRefit,
    LifecycleManager,
    NoRefit,
    WindowBuffer,
)
from repro.serve.registry import ModelRegistry
from repro.serve.service import DetectionService
from repro.serve.sinks import JsonlSink
from repro.serve.snapshot import read_manifest, save_snapshot
from repro.serve.telemetry import (
    HeartbeatWatchdog,
    SpanTracer,
    StatusServer,
    build_run_summary,
    render_run_report,
)
from repro.serve.telemetry import traceview

__all__ = ["main", "DETECTOR_FACTORIES"]

#: Detector id -> zero-argument factory with serving-friendly defaults.
DETECTOR_FACTORIES = {
    "iforest": lambda: IsolationForest(n_estimators=100, random_state=0),
    "lof": lambda: LocalOutlierFactor(n_neighbors=20, random_state=0),
    "pca": lambda: PCAReconstructionDetector(n_components=0.95),
    "mahalanobis": lambda: MahalanobisDetector(),
    "ocsvm": lambda: OneClassSVM(n_epochs=10, random_state=0),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Online serving for fitted intrusion detectors."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="serve a detector over a flow stream")
    serve.add_argument("--dataset", default="wustl_iiot", help="synthetic dataset name")
    serve.add_argument("--scale", type=float, default=0.002, help="dataset scale")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--detector", choices=sorted(DETECTOR_FACTORIES), default="iforest",
        help="detector to fit when not loading from a registry",
    )
    serve.add_argument("--batch-size", type=int, default=256, help="stream batch size")
    serve.add_argument(
        "--micro-batch-size", type=int, default=1024,
        help="upper bound on rows per scoring call (bounds peak memory)",
    )
    serve.add_argument(
        "--refit", choices=["off", "full", "continual", "reload"], default="off",
        help="reaction to drift: 'full' refits the detector from scratch "
        "on the clean recent window, 'continual' routes the window through "
        "the model's continual update path; candidates must pass a quality "
        "gate, are republished to --registry when given, and hot-swap the "
        "served model.  'reload' refits nothing: it swaps in the registry's "
        "pinned or latest version (needs --registry plus --model or "
        "--publish) unless that version is already serving",
    )
    serve.add_argument(
        "--refit-window", type=int, default=4096,
        help="capacity of the clean-window buffer refits are trained on",
    )
    serve.add_argument(
        "--drift-strength", type=float, default=2.0,
        help="covariate drift injected over the stream (0 disables)",
    )
    serve.add_argument(
        "--threshold", default="auto",
        help="'auto' (detector default), 'rolling', or a fixed float",
    )
    serve.add_argument("--rolling-quantile", type=float, default=0.95)
    serve.add_argument(
        "--registry", type=Path, default=None, help="model registry directory"
    )
    serve.add_argument(
        "--model", default=None,
        help="registry model to serve, as NAME, NAME@latest, NAME@pinned or NAME@vN",
    )
    serve.add_argument(
        "--publish", action="store_true",
        help="publish the fitted detector to the registry before serving",
    )
    serve.add_argument(
        "--alerts", type=Path, default=None, help="write alerts/drift events as JSONL"
    )
    serve.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="deterministic chaos testing: inject faults described by SPEC "
        "(e.g. 'sink_raise@every=1;nan_rows@rate=0.05'; "
        "see repro.serve.faults for the grammar); never use in production",
    )
    serve.add_argument(
        "--trace-file", type=Path, default=None, metavar="PATH",
        help="append one JSONL span record per instrumented pipeline stage "
        "(quarantine scan, scoring, drift check, refit, gate, ...) to PATH",
    )
    serve.add_argument(
        "--status-port", type=int, default=None, metavar="PORT",
        help="serve a live introspection endpoint on 127.0.0.1:PORT while "
        "the stream runs: /metrics (Prometheus text exposition), /health "
        "(200/503 from the batch heartbeat watchdog) and /status (JSON: "
        "epoch, serving version, disabled sinks); PORT 0 "
        "picks a free port",
    )
    serve.add_argument(
        "--health-deadline", type=float, default=30.0, metavar="SECONDS",
        help="with --status-port: /health turns NOT_OK when no batch "
        "completed within this many seconds (default 30)",
    )
    serve.add_argument(
        "--run-dir", type=Path, default=None, metavar="DIR",
        help="write auditable run artifacts into DIR: events.jsonl (every "
        "sink event), run_summary.json (config/model/stream hashes + metrics "
        "snapshot) and report.json/report.md (sectioned MET/NOT_MET verdicts); "
        "re-render later with 'repro serve report DIR'",
    )

    serve_sub = serve.add_subparsers(dest="serve_command")
    serve_report = serve_sub.add_parser(
        "report", help="(re)build report.json/report.md from a --run-dir output"
    )
    serve_report.add_argument(
        "run_dir", type=Path,
        help="directory written by 'repro serve --run-dir'",
    )

    trace = sub.add_parser(
        "trace",
        help="analyze span-JSONL trace files: per-stage stats and p95 "
        "latency budgets",
    )
    traceview.configure_parser(trace)

    registry = sub.add_parser("registry", help="inspect, pin or prune registry contents")
    registry.add_argument(
        "action",
        choices=["list", "show", "pin", "unpin", "gc", "history", "recover"],
    )
    registry.add_argument("name", nargs="?", default=None)
    registry.add_argument("version", nargs="?", default=None)
    registry.add_argument("--registry", type=Path, required=True)
    registry.add_argument(
        "--keep", type=int, default=3,
        help="registry gc: newest versions kept per model (pinned versions "
        "always survive)",
    )
    return parser


def _split_model_selector(selector: str) -> tuple[str, str | None]:
    name, _, version = selector.partition("@")
    return name, (version or None)


class _Terminated(Exception):
    """Internal marker raised by the SIGTERM handler for a graceful exit."""


def _serve_stream(service, stream) -> int:
    """Run the service; returns 0, or 130/143 on SIGINT/SIGTERM.

    ``service.run``'s own ``finally`` closes the sinks on the way out, so an
    interrupted stream still flushes its JSONL events; the caller prints the
    partial report.  The previous SIGTERM disposition is restored before
    returning.
    """

    def _on_sigterm(signum, frame):
        raise _Terminated()

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - not on the main thread
        pass
    try:
        service.run(stream)
        return 0
    except KeyboardInterrupt:
        return 130
    except _Terminated:
        return 143
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


#: serve args that shape the run's *semantics* — hashed into the run
#: summary's config SHA-256.  Output locations and the status endpoint are
#: excluded: re-running with a different --run-dir is the same experiment.
_CONFIG_EXCLUDED = (
    "command",
    "serve_command",
    "alerts",
    "health_deadline",
    "registry",
    "run_dir",
    "status_port",
    "trace_file",
)


def _model_provenance(
    detector,
    run_dir: Path,
    registry: ModelRegistry | None,
    model_name: str | None,
    serving_version: int | None,
) -> dict:
    """Model facts for ``run_summary.json`` (name, version, artifact hashes).

    A registry-served model already has a manifest vouching for its artifact
    bytes; a locally fitted one is snapshotted into ``<run-dir>/model`` so
    the run directory carries the exact served model *and* its hashes.
    """
    if registry is not None and model_name is not None and serving_version is not None:
        info = registry.resolve(model_name, f"v{serving_version}")
        manifest = info.manifest
        return {
            "source": "registry",
            "name": info.name,
            "version": info.version,
            "class": manifest.get("class"),
            "artifacts": manifest.get("artifacts") or {},
        }
    path = save_snapshot(detector, run_dir / "model", overwrite=True)
    manifest = read_manifest(path)
    return {
        "source": "snapshot",
        "name": type(detector).__name__,
        "version": None,
        "class": manifest.get("class"),
        "artifacts": manifest.get("artifacts") or {},
    }


def _write_run_artifacts(
    args: argparse.Namespace,
    *,
    service,
    dataset,
    detector,
    registry: ModelRegistry | None,
    model_name: str | None,
    serving_version: int | None,
) -> None:
    """Write ``run_summary.json`` + ``report.json``/``report.md`` into
    ``args.run_dir`` (the sinks — including ``events.jsonl`` — are already
    closed by ``service.run``'s own ``finally``)."""
    run_dir: Path = args.run_dir
    config = {
        key: (str(value) if isinstance(value, Path) else value)
        for key, value in sorted(vars(args).items())
        if key not in _CONFIG_EXCLUDED
    }
    stream_info = {
        "source": "synthetic",
        "dataset": dataset.name,
        "scale": args.scale,
        "seed": args.seed,
        "batch_size": args.batch_size,
        "drift_strength": args.drift_strength,
    }
    model_info = _model_provenance(
        detector, run_dir, registry, model_name, serving_version
    )
    summary_payload = build_run_summary(
        config,
        stream=stream_info,
        model=model_info,
        metrics=service.metrics_snapshot(),
    )
    (run_dir / "run_summary.json").write_text(
        json.dumps(summary_payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    # Rendered from the run dir's own files, exactly as `serve report`
    # re-renders it later.
    payload = render_run_report(run_dir)
    print(f"run report: {payload['overall']} -> {run_dir / 'report.md'}")


def _print_recovered(events) -> None:
    for event in events:
        print(
            f"registry recovered: {event.name}/{event.version_dir} "
            f"quarantined ({event.reason})"
        )


def _run_serve_report(args: argparse.Namespace) -> int:
    try:
        report = render_run_report(args.run_dir)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc))
    print(f"run report: {report['overall']} -> {Path(args.run_dir) / 'report.md'}")
    for section in report["sections"]:
        print(f"  {section['index']}. {section['title']}: {section['verdict']}")
    return 0 if report["overall"] != "NOT_MET" else 1


def _require_continual(detector: object) -> None:
    """Exit unless ``detector`` can be refitted by ``--refit continual``."""
    if not (hasattr(detector, "update") or hasattr(detector, "fit_experience")):
        raise SystemExit(
            "--refit continual requires a continual method with an "
            "update()/fit_experience() path; the built-in CLI detectors "
            "are static novelty detectors (use --refit full)"
        )


def _run_serve(args: argparse.Namespace) -> int:
    # Validate flag combinations before any dataset/fit work: a flag typo
    # must not cost a training run.
    if args.refit == "reload" and (
        args.registry is None or (args.model is None and not args.publish)
    ):
        raise SystemExit(
            "--refit reload requires --registry plus either --model or --publish"
        )
    if args.status_port is not None and args.status_port < 0:
        raise SystemExit("--status-port must be >= 0 (0 picks a free port)")
    if args.health_deadline <= 0:
        raise SystemExit("--health-deadline must be positive")
    for flag, value in (
        ("--batch-size", args.batch_size),
        ("--micro-batch-size", args.micro_batch_size),
        ("--refit-window", args.refit_window),
    ):
        if value < 1:
            raise SystemExit(f"{flag} must be at least 1, got {value}")
    if not 0.0 < args.rolling_quantile < 1.0:
        raise SystemExit(
            f"--rolling-quantile must be strictly between 0 and 1, "
            f"got {args.rolling_quantile}"
        )
    if args.drift_strength < 0:
        raise SystemExit(
            f"--drift-strength must be non-negative, got {args.drift_strength}"
        )
    try:
        threshold: float | str = float(args.threshold)
    except ValueError:
        threshold = args.threshold
        if threshold not in ("auto", "rolling"):
            raise SystemExit(
                f"--threshold must be 'auto', 'rolling' or a number, "
                f"got {threshold!r}"
            ) from None
    if threshold != threshold:  # NaN: no score would ever exceed it
        raise SystemExit("--threshold must not be nan: it would flag nothing")
    if args.refit == "continual" and args.model is None:
        # An unfitted factory instance answers this as well as a fitted one.
        _require_continual(DETECTOR_FACTORIES[args.detector]())
    if args.run_dir is not None:
        args.run_dir.mkdir(parents=True, exist_ok=True)
        if args.trace_file is None:
            # Trace into the run dir by default so `repro trace` finds the
            # spans next to the other artifacts.
            args.trace_file = args.run_dir / "trace.jsonl"
    tracer = SpanTracer(args.trace_file) if args.trace_file is not None else None
    injector: FaultInjector | None = None
    if args.inject_faults:
        try:
            injector = FaultInjector.from_spec(args.inject_faults, seed=args.seed)
        except ValueError as exc:
            raise SystemExit(f"--inject-faults: {exc}")
        print(f"fault injection armed: {injector.describe()}")
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    normal = dataset.normal_data()
    registry = ModelRegistry(args.registry) if args.registry is not None else None
    if registry is not None:
        _print_recovered(registry.recovered_)

    served_name: str | None = None
    serving_version: int | None = None
    if args.model is not None:
        if registry is None:
            raise SystemExit("--model requires --registry")
        name, version = _split_model_selector(args.model)
        try:
            resolved = registry.resolve(name, version)
            detector = registry.load(name, version)
        except KeyError as exc:  # str() of a KeyError is its quoted repr
            raise SystemExit(f"--model {args.model}: {exc.args[0]}") from None
        except ValueError as exc:  # a malformed selector, or a SnapshotError
            raise SystemExit(f"--model {args.model}: {exc}") from None
        served_name = name
        serving_version = resolved.version
        print(f"serving {name}@{version or 'default'} from {registry.root}")
    else:
        detector = DETECTOR_FACTORIES[args.detector]()
        detector.fit(normal)
        print(f"fitted {type(detector).__name__} on {normal.shape[0]} clean flows")
        if registry is not None and args.publish:
            info = registry.publish(
                detector,
                f"{args.detector}-{dataset.name}",
                metadata={"dataset": dataset.name, "scale": args.scale},
            )
            served_name = info.name
            serving_version = info.version
            print(f"published {info.name} v{info.version} to {registry.root}")
            if injector is not None and injector.torn_write:
                # Model a publisher killed mid-write, then the recovery scan
                # a restart would run; the fitted detector in memory keeps
                # serving either way.
                print(f"fault injection: {FaultInjector.tear_version(info.path)}")
                _print_recovered(registry.recover(info.name))
                serving_version = None

    sinks = [JsonlSink(args.alerts)] if args.alerts is not None else []
    if injector is not None:
        sinks = injector.wrap_sinks(sinks)
    if args.run_dir is not None:
        # The audit channel is appended *after* fault wrapping: chaos testing
        # must not be able to disable the record of the chaos.
        sinks.append(JsonlSink(args.run_dir / "events.jsonl"))
    # One resilience wrapper per sink, shared by the service and the
    # lifecycle manager: a sink either of them disabled stays disabled.
    sinks = wrap_sinks(sinks)
    ref_scores = detector.score_samples(normal)

    lifecycle = None
    if args.refit != "off":
        if args.refit == "continual" and args.model is not None:
            _require_continual(detector)
        if args.refit == "full":
            # A locally fitted detector refits via its factory; a registry
            # model's hyper-parameters survive the snapshot clone instead.
            # Validate the clone path eagerly — failing at the first drift
            # event, mid-stream, would lose the accumulated serving state.
            if args.model is not None and not hasattr(detector, "fit"):
                raise SystemExit(
                    f"--refit full requires a model with fit(); the registry "
                    f"model is a {type(detector).__name__} without one "
                    "(use --refit continual)"
                )
            factory = DETECTOR_FACTORIES[args.detector] if args.model is None else None
            policy: FullRefit | ContinualRefit | NoRefit = FullRefit(factory)
        elif args.refit == "continual":
            policy = ContinualRefit()
        else:
            policy = NoRefit()
        model_name = None
        if registry is not None:
            model_name = (
                served_name
                if served_name is not None
                else f"{args.detector}-{dataset.name}"
            )
        lifecycle = LifecycleManager(
            policy,
            buffer=WindowBuffer(args.refit_window),
            registry=registry,
            model_name=model_name,
            serving_version=serving_version,
            sinks=sinks,
        )
        if args.refit == "reload":
            print(f"registry reload on drift: {model_name} (pinned or latest)")
        else:
            republish = (
                "republishing" if registry is not None else "not republishing"
            )
            print(f"online refit on drift: policy={args.refit}, "
                  f"window={args.refit_window} rows, {republish}")

    monitor = DriftMonitor()
    monitor.set_reference(ref_scores, normal)

    service = DetectionService(
        detector,
        threshold=threshold,
        rolling_quantile=args.rolling_quantile,
        micro_batch_size=args.micro_batch_size,
        drift_monitor=monitor,
        sinks=sinks,
        lifecycle=lifecycle,
        tracer=tracer,
    )
    status_server: StatusServer | None = None
    if args.status_port is not None:
        watchdog = HeartbeatWatchdog(args.health_deadline)
        service.heartbeat = watchdog

        def _status_payload() -> dict:
            return {
                "epoch": service.epoch_,
                "serving_version": serving_version,
                "n_batches": service.n_batches_,
                "n_samples": service.n_samples_,
                "n_alerts": service.n_alerts_,
                "disabled_sinks": service.n_disabled_sinks_,
            }

        status_server = StatusServer(
            args.status_port,
            snapshot_fn=service.metrics_snapshot,
            status_fn=_status_payload,
            watchdog=watchdog,
        ).start()
        print(f"status endpoint live at {status_server.url('/status')}")

    stream = FlowStream(
        dataset,
        batch_size=args.batch_size,
        drift_strength=args.drift_strength,
        random_state=args.seed,
    )
    if injector is not None:
        stream = injector.corrupt_stream(stream)
    try:
        interrupted = _serve_stream(service, stream)
    except BaseException:
        # An exception out of the stream must not leak the span-file handle:
        # close it before propagating (the tracer's close truncates any torn
        # trailing line, so the partial trace stays readable).  The happy
        # path below closes it after taking the span count.
        if tracer is not None:
            tracer.close()
        raise
    finally:
        if status_server is not None:
            status_server.close()
    if tracer is not None:
        tracer.close()
        print(f"{tracer.n_spans} spans traced to {tracer.path}")
    # service.run's finally already closed the sinks; an interrupted run
    # still flushes its partial report (and the partial run artifacts) so an
    # operator sees what was processed, then exits with the conventional
    # signal code — no raw traceback.
    print(service.report().summary())
    if not interrupted:
        if lifecycle is not None:
            for event in lifecycle.events:
                outcome = "swapped" if event.swapped else "kept current model"
                version = (
                    f", published v{event.published_version}"
                    if event.published_version is not None
                    else ""
                )
                reason = f" ({event.reason})" if event.reason else ""
                print(
                    f"lifecycle: {event.action} on {event.n_window_rows} clean "
                    f"rows -> {outcome} (epoch {event.epoch}{version}){reason}"
                )
            if not lifecycle.events:
                print("lifecycle: no drift fired; model unchanged")
        if args.alerts is not None:
            print(f"events written to {args.alerts}")
    if args.run_dir is not None:
        _write_run_artifacts(
            args,
            service=service,
            dataset=dataset,
            detector=detector,
            registry=registry,
            model_name=served_name,
            serving_version=serving_version,
        )
    if interrupted:
        signal_name = "SIGINT" if interrupted == 130 else "SIGTERM"
        print(f"interrupted by {signal_name}; partial report above")
    return interrupted


def _run_registry(args: argparse.Namespace) -> int:
    registry = ModelRegistry(args.registry)
    if args.action == "gc":
        if args.version is not None:
            raise SystemExit(
                "registry gc takes no version argument; use --keep N to "
                "choose how many newest versions survive"
            )
        deleted = registry.gc(args.name, keep=args.keep)
        for info in deleted:
            print(f"deleted {info.name} v{info.version}")
        scope = args.name if args.name is not None else "all models"
        print(f"gc kept the newest {args.keep} version(s) of {scope} "
              f"({len(deleted)} deleted)")
        return 0
    if args.action == "list":
        for name in registry.models():
            versions = registry.versions(name)
            pinned = registry.pinned_version(name)
            pin_note = f", pinned v{pinned}" if pinned is not None else ""
            print(f"{name}: v{versions[0]}..v{versions[-1]}{pin_note}")
        return 0
    if args.action == "recover":
        if args.version is not None:
            raise SystemExit(
                "registry recover takes no version argument; it scans every "
                "version directory of the model (or all models)"
            )
        # The constructor's scan already quarantined anything corrupt;
        # report those events (filtered to the requested model, if any).
        events = [
            event
            for event in registry.recovered_
            if args.name is None or event.name == args.name
        ]
        for event in events:
            print(
                f"{event.name}: quarantined {event.version_dir} -> "
                f"{event.quarantined_to} ({event.reason})"
            )
        scope = args.name if args.name is not None else "all models"
        print(f"recovery scan of {scope}: {len(events)} entr(y|ies) quarantined")
        return 0
    if args.name is None:
        raise SystemExit(f"registry {args.action} requires a model name")
    if args.action == "history":
        if args.version is not None:
            raise SystemExit(
                "registry history takes no version argument; the lineage "
                "file spans every version of the model"
            )
        if not registry.versions(args.name) and not registry.history_path(
            args.name
        ).is_file():
            raise SystemExit(
                f"model {args.name!r} has no published versions or recorded "
                f"history in {registry.root}"
            )
        events = registry.history(args.name)
        for index, event in enumerate(events):
            if event.get("type") == "registry_recover":
                print(
                    f"[{index}] registry_recover: quarantined "
                    f"{event.get('version_dir')} ({event.get('reason')})"
                )
                continue
            action = event.get("action", "?")
            outcome = "swapped" if event.get("swapped") else "kept current model"
            version = (
                f", published v{event['published_version']}"
                if event.get("published_version") is not None
                else ""
            )
            print(
                f"[{index}] {action} -> {outcome} "
                f"(epoch {event.get('epoch', 0)}{version})"
            )
        print(f"{len(events)} lifecycle event(s) recorded for {args.name}")
        return 0
    if args.action == "show":
        info = registry.resolve(args.name, args.version)
        manifest = info.manifest
        print(f"{info.name} v{info.version} at {info.path}")
        print(f"class: {manifest['class']}")
        print(f"created: {manifest['created_at']}")
        if manifest.get("metadata"):
            print(f"metadata: {manifest['metadata']}")
        return 0
    if args.action == "pin":
        if args.version is None:
            raise SystemExit("registry pin requires a version")
        info = registry.pin(args.name, args.version)
        print(f"pinned {info.name} to v{info.version}")
        return 0
    registry.unpin(args.name)
    print(f"unpinned {args.name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    if args.command == "serve":
        if getattr(args, "serve_command", None) == "report":
            return _run_serve_report(args)
        return _run_serve(args)
    if args.command == "trace":
        return traceview.run(args)
    return _run_registry(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())
