"""Multi-core throughput benchmark: threaded kernels + the serving loop.

Measures the parallelism layer end to end and records the numbers under the
``"parallel"`` key of ``BENCH_inference.json`` (the sequential engine keeps
its own ``"results"`` section) so ``check_bench_trend.py`` can fail the build
on a multi-core throughput regression just like it does for single-core
inference:

* ``IsolationForest.score_samples`` with the kernels capped at one thread
  versus all allowed threads (``REPRO_NUM_THREADS``) — the OpenMP/thread-pool
  row-block speedup in isolation;
* ``DetectionService.run`` over a batch stream — the serving loop on top of
  the same kernels.

On a single-core machine the speedups hover around 1.0x; the trend check
compares like to like across runs of the same machine, so the entries remain
meaningful guards either way.

Usage::

    PYTHONPATH=src python benchmarks/run_parallel_bench.py \
        [--n-rows 20000] [--n-features 16] [--workers 0 (= auto)] \
        [--output BENCH_inference.json]
"""

from __future__ import annotations

import argparse
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro._version import __version__
from repro.ml import native
from repro.novelty import IsolationForest
from repro.serve.service import DetectionService
from repro.utils.timing import Timer

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_inference.json"


@contextmanager
def _thread_cap(n_threads: int) -> Iterator[None]:
    """Temporarily pin ``REPRO_NUM_THREADS`` (both kernel backends honor it)."""
    previous = os.environ.get("REPRO_NUM_THREADS")
    os.environ["REPRO_NUM_THREADS"] = str(n_threads)
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_NUM_THREADS"]
        else:
            os.environ["REPRO_NUM_THREADS"] = previous


def _best_rate(fn: Callable[[], object], n_items: int, n_repeats: int) -> float:
    best = 0.0
    for _ in range(max(n_repeats, 1)):
        timer = Timer()
        with timer:
            fn()
        best = max(best, timer.throughput(n_items))
    return best


def run_bench(
    *,
    n_rows: int = 20_000,
    n_features: int = 16,
    n_workers: int = 0,
    batch_size: int = 512,
    n_repeats: int = 3,
    seed: int = 0,
) -> dict[str, object]:
    """Run the parallel throughput suite; returns the ``"parallel"`` payload."""
    cpu_count = os.cpu_count() or 1
    if n_workers < 1:
        n_workers = max(2, min(4, cpu_count))
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(2000, n_features))
    X = rng.normal(size=(n_rows, n_features))
    detector = IsolationForest(
        n_estimators=50, max_samples=256, random_state=seed
    ).fit(train)
    batches = [X[start : start + batch_size] for start in range(0, n_rows, batch_size)]

    results: dict[str, object] = {}

    with _thread_cap(1):
        kernel_seq = _best_rate(lambda: detector.score_samples(X), n_rows, n_repeats)
    with _thread_cap(n_workers):
        kernel_par = _best_rate(lambda: detector.score_samples(X), n_rows, n_repeats)
    results["IsolationForest.score_samples[threads=1]"] = {
        "samples_per_sec": kernel_seq,
    }
    results[f"IsolationForest.score_samples[threads={n_workers}]"] = {
        "samples_per_sec": kernel_par,
        "speedup_vs_sequential": kernel_par / kernel_seq if kernel_seq > 0 else 0.0,
    }

    def _run_service() -> None:
        DetectionService(detector, threshold="auto").run(batches)

    results["DetectionService.run[iforest]"] = {
        "samples_per_sec": _best_rate(_run_service, n_rows, n_repeats)
    }

    return {
        "benchmark": "parallel_throughput",
        "version": __version__,
        "config": {
            "n_rows": n_rows,
            "n_features": n_features,
            "n_workers": n_workers,
            "batch_size": batch_size,
            "n_repeats": n_repeats,
            "seed": seed,
            "cpu_count": cpu_count,
            "native_kernels": native.available(),
            "openmp": native.openmp_enabled(),
        },
        "results": results,
    }


def write_report(payload: dict[str, object], output: Path = DEFAULT_OUTPUT) -> Path:
    """Merge the parallel payload into the benchmark file's ``parallel`` key.

    The sequential inference numbers under ``"results"`` are left untouched,
    so either benchmark can be refreshed independently.
    """
    output = Path(output)
    document: dict[str, object] = {}
    if output.exists():
        document = json.loads(output.read_text())
    document["parallel"] = payload
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return output


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-rows", type=int, default=20_000)
    parser.add_argument("--n-features", type=int, default=16)
    parser.add_argument(
        "--workers", type=int, default=0,
        help="kernel thread count (0 = auto: min(4, cpus), at least 2)",
    )
    parser.add_argument("--batch-size", type=int, default=512)
    parser.add_argument("--n-repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    if min(args.n_rows, args.n_features, args.batch_size, args.n_repeats) < 1:
        parser.error("--n-rows, --n-features, --batch-size, --n-repeats must be >= 1")
    payload = run_bench(
        n_rows=args.n_rows,
        n_features=args.n_features,
        n_workers=args.workers,
        batch_size=args.batch_size,
        n_repeats=args.n_repeats,
        seed=args.seed,
    )
    path = write_report(payload, args.output)
    for name, entry in payload["results"].items():
        line = f"{name:55s} {entry['samples_per_sec']:>12.0f} samples/s"
        if "speedup_vs_sequential" in entry:
            line += f"  ({entry['speedup_vs_sequential']:.2f}x vs sequential)"
        print(line)
    print(f"[parallel section written to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
