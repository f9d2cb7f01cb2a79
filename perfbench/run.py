"""Run one benchmark workload and print its metrics (last line: JSON).

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-cndids --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics instead (and writes the spans to
``perfbench/out/``).  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import os
import sys

# Thread pools are sized when their libraries load, so pin them to the
# machine before numpy is imported: OpenBLAS, OpenMP (the forest kernel) and
# the library's own row-block pool never exceed the cores this process has.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "REPRO_NUM_THREADS")
for _var in THREAD_VARS:
    try:
        _requested = int(os.environ.get(_var) or NPROC)
    except ValueError:
        _requested = NPROC
    os.environ[_var] = str(max(1, min(_requested, NPROC)))

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: metric -> unit, printed with ``--trace 0`` (the gated ones).
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "alert_f1": "ratio",
    "pr_auc": "ratio",
    "peak_rss_mb": "MB",
}

#: ``src/repro`` packages whose size is recorded (``code_size.<package>``).
PACKAGES = (
    "analysis", "continual", "core", "datasets", "experiments", "metrics", "ml",
    "nn", "novelty", "serve", "serve.lifecycle", "serve.telemetry", "supervised",
    "utils",
)


def per_layer_units() -> dict[str, str]:
    """metric -> unit, printed with ``--trace 1`` (informational, no bound)."""
    from workloads import COUNTS, LAYER_NAMES

    units = {f"{layer}_ms": "ms" for layer in LAYER_NAMES}
    units.update({"eval.predict_ms": "ms", "eval.score_ms": "ms"})
    units.update({name: "count" for name in COUNTS})
    units.update(
        {
            "native.parallel_rows_frac": "ratio",
            "cfe.train_steps": "count",
            "losses.chosen_k": "count",
            "pca.rank": "count",
            "lifecycle.accept_frac": "ratio",
            "lifecycle.swap_stall_ms": "ms",
            "train.train_s": "s",
            "train.fwd_transfer": "ratio",
            "trace.unaccounted_frac": "ratio",
            "trace.overhead_frac": "ratio",
            "env.threads": "count",
            "env.native_available": "flag",
            "env.openmp_enabled": "flag",
        }
    )
    units.update({f"code_size.{pkg}": "lines" for pkg in PACKAGES + ("total",)})
    return units


def code_size() -> dict[str, float]:
    """Lines of Python per ``src/repro`` package (subpackages listed apart)."""
    sizes = dict.fromkeys(PACKAGES + ("total",), 0)
    root = SRC / "repro"
    for path in sorted(root.rglob("*.py")):
        lines = len(path.read_text(errors="replace").splitlines())
        sizes["total"] += lines
        parts = path.relative_to(root).parts[:-1]
        for depth in range(len(parts), 0, -1):
            package = ".".join(parts[:depth])
            if package in sizes:
                sizes[package] += lines
                break
    return {f"code_size.{name}": float(n) for name, n in sizes.items()}


def environment() -> dict:
    """Threads, numpy/BLAS and the native kernel; compiles the kernel (untimed)."""
    import numpy as np
    from repro.ml import native

    start = perf_counter()
    available = native.available()
    compile_s = perf_counter() - start
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": NPROC,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": blas_name,
        "native_available": available,
        "openmp_enabled": native.openmp_enabled(),
        "native_load_s": compile_s,
        "native_error": native.last_compile_error,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, peak_rss_mb, run_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2

    env = environment()
    print(f"env: {json.dumps(env)}")
    if not env["native_available"]:
        print("warning: native forest kernel unavailable; forest scoring runs "
              "the pure-NumPy fallback", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    outcome.e2e["peak_rss_mb"] = peak_rss_mb()

    for key, value in outcome.notes.items():
        print(f"note {key:<22} {value}")
    print(f"e2e  {'error_rate':<22} {outcome.failed / max(outcome.attempted, 1):.6g} "
          f"fraction ({outcome.failed}/{outcome.attempted})")
    if args.trace:
        layers = dict(outcome.layers)
        layers.update(code_size())
        layers.update(
            {
                "env.threads": float(os.environ["REPRO_NUM_THREADS"]),
                "env.native_available": float(env["native_available"]),
                "env.openmp_enabled": float(env["openmp_enabled"]),
            }
        )
        units = per_layer_units()
        unknown = sorted(set(layers) - set(units))
        if unknown:
            raise RuntimeError(f"per-layer metrics without a declared unit: {unknown}")
        metrics = {name: (layers.get(name, 0.0), unit) for name, unit in units.items()}
    else:
        metrics = {name: (outcome.e2e[name], unit) for name, unit in END_TO_END.items()}
    for name, (value, unit) in metrics.items():
        print(f"{'layer' if args.trace else 'e2e'}  {name:<30} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
