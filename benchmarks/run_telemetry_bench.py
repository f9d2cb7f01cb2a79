"""Telemetry overhead benchmark: what observability costs on the hot path.

The telemetry layer (:mod:`repro.serve.telemetry`) is on by default: every
scored batch updates counters and latency histograms and passes through the
per-stage spans.  Observability that taxes the serving loop gets
turned off, so this benchmark pins the costs under the ``"telemetry"`` key
of ``BENCH_inference.json`` and ``check_bench_trend.py`` fails the build
when any of them regresses:

* ``process_batch[instrumented]`` — full service scoring of one batch with
  the default (enabled) metrics registry and spans;
* ``process_batch[uninstrumented]`` — the same batch with telemetry routed
  to the :data:`~repro.serve.telemetry.metrics.DISABLED` registry
  (``overhead_vs_uninstrumented`` on the instrumented entry makes the
  instrumentation tax explicit — the acceptance bound is 5%);
* ``process_batch[traced]`` — the same batch with a full
  :class:`~repro.serve.telemetry.context.TraceContext` and a
  :class:`~repro.serve.telemetry.tracing.SpanBuffer` attached (trace ids
  allocated per span), held to the same 5% bound — trace context
  must ride along for free;
* ``trace_span[enter_exit]`` — bare span enter/exit cycles per second
  against a live registry (the unit cost every instrumented stage pays);
* ``metrics_exposition[render]`` — :func:`render_prometheus` over a
  populated snapshot, renders per second (paid per ``/metrics`` scrape);
* ``mem_sample`` — one :meth:`MemoryProfiler.sample` (RSS read + gauge and
  histogram update), samples per second (paid per batch under
  ``--profile-mem``);
* ``report_render`` — :func:`build_report` + :func:`render_markdown` from a
  realistic summary/metrics/events payload, reports per second.

Usage::

    PYTHONPATH=src python benchmarks/run_telemetry_bench.py \
        [--batch 4096] [--n-features 16] \
        [--output BENCH_inference.json]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from repro._version import __version__
from repro.novelty import IsolationForest
from repro.serve.service import DetectionService
from repro.serve.telemetry import (
    MemoryProfiler,
    MetricsRegistry,
    SpanBuffer,
    TraceContext,
    build_report,
    build_run_summary,
    render_markdown,
    render_prometheus,
    trace_span,
)
from repro.serve.telemetry.metrics import DISABLED
from run_lifecycle_bench import DEFAULT_OUTPUT, _best_time, write_report

__all__ = ["run_bench", "write_report", "DEFAULT_OUTPUT", "main"]


#: Batches recorded into the populated registry the render benches read.
_N_BATCHES = 400


def _populated_registry(seed: int, n_batches: int = _N_BATCHES) -> MetricsRegistry:
    """The instruments a serving run accumulates over ``n_batches`` batches."""
    rng = np.random.default_rng(seed)
    registry = MetricsRegistry()
    batches = registry.counter("pipeline.batches", unit="batches")
    rows = registry.counter("pipeline.rows", unit="rows")
    latency = registry.histogram("pipeline.batch_seconds", unit="seconds")
    stage = registry.histogram("stage.score.seconds", unit="seconds")
    for value in rng.lognormal(mean=-7.0, sigma=1.0, size=n_batches):
        batches.inc()
        rows.inc(256)
        latency.observe(float(value))
        stage.observe(float(value) * 0.8)
    registry.gauge("fusion.conflict_mass", unit="mass").set(float(rng.random()))
    return registry


def run_bench(
    *,
    batch: int = 4096,
    n_features: int = 16,
    n_repeats: int = 3,
    seed: int = 0,
) -> dict[str, object]:
    """Run the telemetry-overhead suite; returns the ``"telemetry"`` payload."""
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(2000, n_features))
    detector = IsolationForest(
        n_estimators=50, max_samples=256, random_state=seed
    ).fit(train)
    clean = rng.normal(size=(batch, n_features))

    results: dict[str, object] = {}

    # Uninstrumented arm first so the instrumented ratio reads off it.
    off_service = DetectionService(detector, threshold="auto", telemetry=DISABLED)
    off_s = _best_time(lambda: off_service.process_batch(clean), n_repeats)
    results["process_batch[uninstrumented]"] = {
        "samples_per_sec": batch / off_s,
        "batch_latency_s": off_s,
    }

    on_service = DetectionService(detector, threshold="auto")
    on_s = _best_time(lambda: on_service.process_batch(clean), n_repeats)
    results["process_batch[instrumented]"] = {
        "samples_per_sec": batch / on_s,
        "batch_latency_s": on_s,
        "overhead_vs_uninstrumented": on_s / off_s,
    }

    traced_service = DetectionService(
        detector,
        threshold="auto",
        tracer=SpanBuffer(),
        trace_context=TraceContext.root(seed),
    )
    traced_s = _best_time(lambda: traced_service.process_batch(clean), n_repeats)
    results["process_batch[traced]"] = {
        "samples_per_sec": batch / traced_s,
        "batch_latency_s": traced_s,
        "overhead_vs_uninstrumented": traced_s / off_s,
    }

    span_registry = MetricsRegistry()

    def _one_span() -> None:
        with trace_span("bench", metrics=span_registry, rows=1):
            pass

    span_s = _best_time(_one_span, n_repeats, n_inner=1000)
    results["trace_span[enter_exit]"] = {"samples_per_sec": 1.0 / span_s}

    metrics = _populated_registry(seed).snapshot()

    expose_s = _best_time(lambda: render_prometheus(metrics), n_repeats)
    results["metrics_exposition[render]"] = {
        "samples_per_sec": 1.0 / expose_s,
        "render_latency_s": expose_s,
    }

    profiler = MemoryProfiler(MetricsRegistry(), trace_python=False)
    mem_s = _best_time(lambda: profiler.sample("bench"), n_repeats, n_inner=100)
    profiler.close()
    results["mem_sample"] = {
        "samples_per_sec": 1.0 / mem_s,
        "sample_latency_s": mem_s,
    }

    summary = {
        "n_batches": _N_BATCHES,
        "n_samples": 256 * _N_BATCHES,
        "n_alerts": 137,
        "n_drift_events": 2,
        "throughput_samples_per_sec": 1e5,
        "total_time_s": 256 * _N_BATCHES / 1e5,
        "batch_latency_p50_s": 1e-3,
        "batch_latency_p95_s": 3e-3,
        "batch_latency_p99_s": 5e-3,
    }
    events = [
        {"type": "alert", "batch_index": i // 4, "score": 1.0} for i in range(200)
    ] + [{"type": "drift", "batch_index": 30}]
    run_info = build_run_summary(
        {"detector": "iforest", "seed": seed},
        stream={"dataset": "bench", "seed": seed},
        service_report=summary,
        metrics=metrics,
        generated_at="bench",
    )

    def _render() -> None:
        render_markdown(
            build_report(
                summary,
                metrics=metrics,
                events=events,
                run_info=run_info,
                generated_at="bench",
            )
        )

    render_s = _best_time(_render, n_repeats)
    results["report_render"] = {
        "samples_per_sec": 1.0 / render_s,
        "render_latency_s": render_s,
    }

    return {
        "benchmark": "telemetry_overhead",
        "version": __version__,
        "config": {
            "batch": batch,
            "n_features": n_features,
            "n_repeats": n_repeats,
            "seed": seed,
        },
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, default=4096)
    parser.add_argument("--n-features", type=int, default=16)
    parser.add_argument("--n-repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    if min(args.batch, args.n_features, args.n_repeats) < 1:
        parser.error("--batch, --n-features, --n-repeats must be >= 1")
    payload = run_bench(
        batch=args.batch,
        n_features=args.n_features,
        n_repeats=args.n_repeats,
        seed=args.seed,
    )
    path = write_report(payload, args.output, section="telemetry")
    for name, entry in payload["results"].items():
        line = f"{name:40s} {entry['samples_per_sec']:>12.0f} /s"
        if "overhead_vs_uninstrumented" in entry:
            line += f"  ({entry['overhead_vs_uninstrumented']:.3f}x uninstrumented)"
        if "render_latency_s" in entry:
            line += f"  (render {1e3 * entry['render_latency_s']:.1f} ms)"
        print(line)
    print(f"[telemetry section written to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
