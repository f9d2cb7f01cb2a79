"""Optional native (C) kernels for batch tree-ensemble traversal.

The pure-NumPy frontier traversal in :mod:`repro.ml.flat_tree` is bound by
the number of NumPy passes per tree level (~7 array operations per level per
(tree, row) pair).  A tiny C kernel removes that floor: the compiled walk
needs ~2 loads per node step, keeps each tree's node tables L1-resident by
iterating trees in the outer loop, and walks eight rows per tree concurrently
(manual 8-way interleave) so the dependent node->child load chains of
independent rows overlap.  On a 10k-sample batch this is roughly an order of
magnitude faster than both the NumPy frontier and the recursive reference.

When the toolchain supports OpenMP (probed at compile time with
``-fopenmp``), the kernels additionally parallelize over *rows*: the batch is
split into one contiguous row range per thread, each thread walking all trees
for its rows.  Because every row's leaf-payload accumulation still runs over
trees in the same order, the parallel result is **bit-identical** to the
single-thread walk — threading changes scheduling, not arithmetic.
``REPRO_NUM_THREADS`` caps the thread count (default: all CPUs); toolchains
without OpenMP compile the same source sequentially and simply ignore the
requested thread count.

The kernel is compiled on first use with the system C compiler (``$CC`` when
set, else ``cc``) into a cache directory next to this module and loaded
through :mod:`ctypes`.  If no compiler is available, compilation fails, or
the environment variable ``REPRO_DISABLE_NATIVE`` is set to a non-empty
value, every entry point returns ``None`` and callers fall back to the NumPy
implementation — the native path is a pure accelerator, never a requirement.
A failed compilation is never silent to a debugger: the captured compiler
stderr (or spawn error) is kept in :data:`last_compile_error` and logged at
DEBUG level, so "why is scoring slow?" is answerable from a log instead of a
rebuild.

Both kernels operate on the :class:`repro.ml.flat_tree.FlatForest` layout:
consecutive children (``right = left + 1``), self-looping leaves with a
``+inf`` threshold (so a fixed ``depth``-iteration walk is branch-free and
needs no leaf test), and node ids that are absolute into the concatenated
per-tree arrays.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.ml.parallel import get_num_threads

__all__ = [
    "available",
    "forest_sum",
    "forest_apply",
    "last_compile_error",
    "openmp_enabled",
]

logger = logging.getLogger(__name__)

_C_SOURCE = r"""
#include <stdint.h>
#ifdef _OPENMP
#include <omp.h>
#endif

/* Walk every (tree, row) pair of rows [lo, hi) to its leaf.  Trees iterate
 * in the outer loop so each tree's node tables stay cache-hot across the
 * range; rows advance eight at a time so the dependent load chains of
 * independent rows overlap.  The rows of a group never interact, so every
 * row takes the same comparisons, and EMIT runs in the same tree order, as
 * in the single-row tail loop.  Leaves self-loop (threshold = +inf), hence
 * the fixed depth-count walk. */
#define STEP(k, cmp_op) n##k = child[n##k] + (r##k[feature[n##k]] cmp_op threshold[n##k])
#define WALK_ROWS(cmp_op, EMIT, lo, hi) \
    for (int64_t t = 0; t < n_trees; ++t) { \
        const int32_t root = (int32_t)roots[t]; \
        const int64_t depth = depths[t]; \
        int64_t i = (lo); \
        for (; i + 8 <= (hi); i += 8) { \
            const double *r0 = X + (i + 0) * d, *r1 = X + (i + 1) * d; \
            const double *r2 = X + (i + 2) * d, *r3 = X + (i + 3) * d; \
            const double *r4 = X + (i + 4) * d, *r5 = X + (i + 5) * d; \
            const double *r6 = X + (i + 6) * d, *r7 = X + (i + 7) * d; \
            int32_t n0 = root, n1 = root, n2 = root, n3 = root; \
            int32_t n4 = root, n5 = root, n6 = root, n7 = root; \
            for (int64_t l = 0; l < depth; ++l) { \
                STEP(0, cmp_op); STEP(1, cmp_op); STEP(2, cmp_op); STEP(3, cmp_op); \
                STEP(4, cmp_op); STEP(5, cmp_op); STEP(6, cmp_op); STEP(7, cmp_op); \
            } \
            EMIT(i + 0, n0); EMIT(i + 1, n1); EMIT(i + 2, n2); EMIT(i + 3, n3); \
            EMIT(i + 4, n4); EMIT(i + 5, n5); EMIT(i + 6, n6); EMIT(i + 7, n7); \
        } \
        for (; i < (hi); ++i) { \
            const double *row = X + i * d; \
            int32_t node = root; \
            for (int64_t l = 0; l < depth; ++l) \
                node = child[node] + (row[feature[node]] cmp_op threshold[node]); \
            EMIT(i, node); \
        } \
    }

/* Row-parallel dispatch: each thread owns one contiguous row range and
 * writes only into that range, so there are no races and no cross-thread
 * reductions — results are bit-identical to the sequential walk. */
#ifdef _OPENMP
#define WALK_PARALLEL(cmp_op, EMIT) \
    if (n_threads > 1) { \
        _Pragma("omp parallel num_threads((int)n_threads)") \
        { \
            const int64_t nt = omp_get_num_threads(); \
            const int64_t id = omp_get_thread_num(); \
            const int64_t lo = n * id / nt, hi = n * (id + 1) / nt; \
            WALK_ROWS(cmp_op, EMIT, lo, hi) \
        } \
    } else { \
        WALK_ROWS(cmp_op, EMIT, 0, n) \
    }
#else
#define WALK_PARALLEL(cmp_op, EMIT) \
    (void)n_threads; \
    WALK_ROWS(cmp_op, EMIT, 0, n)
#endif

/* 1 when compiled with OpenMP (row-parallel capable), 0 otherwise. */
int64_t repro_openmp_enabled(void)
{
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

/* Accumulate the scalar leaf payload of every tree into out[i]. */
void forest_sum(const double *X, int64_t n, int64_t d,
                const int32_t *feature, const double *threshold,
                const int32_t *child, const double *value,
                const int64_t *roots, const int64_t *depths, int64_t n_trees,
                int strict, int64_t n_threads, double *out)
{
#define EMIT_SUM(i, node) out[i] += value[node]
    if (strict) { WALK_PARALLEL(>=, EMIT_SUM) } else { WALK_PARALLEL(>, EMIT_SUM) }
#undef EMIT_SUM
}

/* Write the absolute leaf id of every (tree, row) pair, tree-major. */
void forest_apply(const double *X, int64_t n, int64_t d,
                  const int32_t *feature, const double *threshold,
                  const int32_t *child,
                  const int64_t *roots, const int64_t *depths, int64_t n_trees,
                  int strict, int64_t n_threads, int32_t *out_leaf)
{
#define EMIT_LEAF(i, node) out_leaf[t * n + (i)] = node
    if (strict) { WALK_PARALLEL(>=, EMIT_LEAF) } else { WALK_PARALLEL(>, EMIT_LEAF) }
#undef EMIT_LEAF
}
"""

_CACHE_DIR = Path(__file__).resolve().parent / "_native_cache"

#: Row batches smaller than this run single-threaded even when more threads
#: are allowed — the per-thread fork/join overhead would dominate.
MIN_PARALLEL_ROWS = 2048

_lib: ctypes.CDLL | None = None
_load_attempted = False
_openmp = False

#: Diagnostics of the most recent failed compile/load attempt (``None`` when
#: the native path is healthy or was never tried).  Surfaced so a silent
#: fallback to the slow path is diagnosable without rebuilding.
last_compile_error: str | None = None


def _compiler() -> str:
    """The C compiler to invoke: ``$CC`` when set, else ``cc``."""
    return os.environ.get("CC") or "cc"


def _try_compile(cc: str, src_path: Path, out_path: Path, openmp: bool) -> str | None:
    """Compile the kernel; return ``None`` on success, the error text on failure."""
    cmd = [cc, "-O3", "-shared", "-fPIC"]
    if openmp:
        cmd.append("-fopenmp")
    cmd += ["-o", str(out_path), str(src_path)]
    try:
        result = subprocess.run(cmd, capture_output=True, timeout=120)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"{' '.join(cmd)}: {exc}"
    if result.returncode != 0:
        stderr = result.stderr.decode(errors="replace").strip()
        return f"{' '.join(cmd)} (exit {result.returncode}):\n{stderr}"
    return None


def _compile_and_load() -> ctypes.CDLL | None:
    global last_compile_error
    cc = _compiler()
    # The compiler identity participates in the cache key: switching $CC must
    # not silently reuse an artifact built by a different toolchain.
    digest = hashlib.sha256(f"{cc}\n{_C_SOURCE}".encode()).hexdigest()[:16]
    lib_path = _CACHE_DIR / f"repro_tree_{digest}.so"
    if not lib_path.exists():
        _CACHE_DIR.mkdir(parents=True, exist_ok=True)
        src_path = _CACHE_DIR / f"repro_tree_{digest}.c"
        src_path.write_text(_C_SOURCE)
        with tempfile.NamedTemporaryFile(
            dir=_CACHE_DIR, suffix=".so", delete=False
        ) as tmp:
            tmp_path = Path(tmp.name)
        # Probe OpenMP first; a toolchain without it still gets the (slower,
        # sequential) kernel rather than no kernel at all.
        omp_error = _try_compile(cc, src_path, tmp_path, openmp=True)
        if omp_error is not None:
            logger.debug("OpenMP compile failed, retrying without: %s", omp_error)
            plain_error = _try_compile(cc, src_path, tmp_path, openmp=False)
            if plain_error is not None:
                tmp_path.unlink(missing_ok=True)
                last_compile_error = plain_error
                logger.debug("native kernel compile failed: %s", plain_error)
                return None
        tmp_path.replace(lib_path)  # atomic: concurrent imports race safely
    lib = ctypes.CDLL(str(lib_path))

    from numpy.ctypeslib import ndpointer

    f64 = ndpointer(np.float64, flags="C_CONTIGUOUS")
    i32 = ndpointer(np.int32, flags="C_CONTIGUOUS")
    i64 = ndpointer(np.int64, flags="C_CONTIGUOUS")
    lib.repro_openmp_enabled.argtypes = []
    lib.repro_openmp_enabled.restype = ctypes.c_int64
    lib.forest_sum.argtypes = [
        f64, ctypes.c_int64, ctypes.c_int64,
        i32, f64, i32, f64,
        i64, i64, ctypes.c_int64, ctypes.c_int, ctypes.c_int64, f64,
    ]
    lib.forest_sum.restype = None
    lib.forest_apply.argtypes = [
        f64, ctypes.c_int64, ctypes.c_int64,
        i32, f64, i32,
        i64, i64, ctypes.c_int64, ctypes.c_int, ctypes.c_int64,
        ndpointer(np.int32, flags=("C_CONTIGUOUS", "WRITEABLE")),
    ]
    lib.forest_apply.restype = None
    last_compile_error = None
    return lib


def _get_lib() -> ctypes.CDLL | None:
    global _lib, _load_attempted, _openmp, last_compile_error
    if os.environ.get("REPRO_DISABLE_NATIVE"):
        return None
    if not _load_attempted:
        _load_attempted = True
        try:
            _lib = _compile_and_load()
        except Exception as exc:  # defensive: any load failure means fallback
            _lib = None
            last_compile_error = f"{type(exc).__name__}: {exc}"
            logger.debug("native kernel load failed: %s", last_compile_error)
        _openmp = bool(_lib is not None and _lib.repro_openmp_enabled())
    return _lib


def available() -> bool:
    """Whether the compiled kernels can be used in this environment."""
    return _get_lib() is not None


def openmp_enabled() -> bool:
    """Whether the loaded kernel was compiled with OpenMP (row-parallel)."""
    return _get_lib() is not None and _openmp


def _effective_threads(n_rows: int, n_threads: int | None) -> int:
    if not _openmp:
        return 1
    if n_threads is None:
        n_threads = get_num_threads()
    if n_rows < MIN_PARALLEL_ROWS:
        return 1
    return max(1, min(n_threads, n_rows))


def forest_sum(
    X: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    child: np.ndarray,
    value_flat: np.ndarray,
    roots: np.ndarray,
    depths: np.ndarray,
    strict: bool,
    n_threads: int | None = None,
) -> np.ndarray | None:
    """Sum of scalar leaf payloads over all trees, or ``None`` if unavailable.

    ``n_threads`` caps the OpenMP row parallelism (``None`` reads
    ``REPRO_NUM_THREADS``); any thread count returns bit-identical sums.
    """
    lib = _get_lib()
    if lib is None:
        return None
    X = np.ascontiguousarray(X, dtype=np.float64)
    out = np.zeros(X.shape[0], dtype=np.float64)
    lib.forest_sum(
        X, X.shape[0], X.shape[1],
        feature, threshold, child, value_flat,
        roots, depths, roots.shape[0], int(strict),
        _effective_threads(X.shape[0], n_threads), out,
    )
    return out


def forest_apply(
    X: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    child: np.ndarray,
    roots: np.ndarray,
    depths: np.ndarray,
    strict: bool,
    n_threads: int | None = None,
) -> np.ndarray | None:
    """``(n_trees, n_samples)`` absolute leaf ids, or ``None`` if unavailable.

    ``n_threads`` caps the OpenMP row parallelism (``None`` reads
    ``REPRO_NUM_THREADS``); leaf ids are identical for any thread count.
    """
    lib = _get_lib()
    if lib is None:
        return None
    X = np.ascontiguousarray(X, dtype=np.float64)
    out = np.empty((roots.shape[0], X.shape[0]), dtype=np.int32)
    lib.forest_apply(
        X, X.shape[0], X.shape[1],
        feature, threshold, child,
        roots, depths, roots.shape[0], int(strict),
        _effective_threads(X.shape[0], n_threads), out,
    )
    return out
