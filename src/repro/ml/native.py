"""Optional native (C) kernels: tree-ensemble sums and three training loops.

The pure-NumPy self-loop walk in :mod:`repro.ml.flat_tree` is bound by
the number of NumPy passes per tree level (~7 array operations per level per
(tree, row) pair).  A tiny C kernel removes that floor: the compiled walk
needs ~2 loads per node step, takes the rows in tiles of ``ROW_TILE`` (256)
and runs every tree over one tile before the next, so each tree's node
tables stay cache-resident across the tile and the tile stays
cache-resident across the trees, and walks eight rows per tree concurrently
(manual 8-way interleave) so the dependent node->child load chains of
independent rows overlap.  On a 10k-sample batch this is roughly an order of
magnitude faster than both the NumPy walk and the recursive reference.

When the toolchain supports OpenMP (probed at compile time with
``-fopenmp``), the walk additionally parallelizes over *rows*: the batch is
split into one contiguous row range per thread, each thread walking its
range tile by tile.  Each thread gets at least :data:`MIN_ROWS_PER_THREAD`
rows, so a batch needs :data:`MIN_PARALLEL_ROWS` rows to run on two threads.
Because every row's leaf-payload accumulation still runs over trees in the
same order, the parallel result is **bit-identical** to the single-thread
walk — threading and tiling change scheduling, not arithmetic.
``REPRO_NUM_THREADS`` caps the walk's OpenMP threads (default: all CPUs,
:func:`get_num_threads`); it is the only thread setting of this library,
which runs no thread pool of its own.  Toolchains without OpenMP compile the
same source sequentially and simply ignore the requested thread count.

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

The walk, ``forest_sum``, operates on the
:class:`repro.ml.flat_tree.FlatForest` layout: consecutive children
(``right = left + 1``), self-looping leaves with a ``+inf`` threshold (so a
fixed ``depth``-iteration walk is branch-free and needs no leaf test), and
node ids that are absolute into the concatenated per-tree arrays.  It adds
each row's leaf payloads of any width, a scalar one (isolation depths,
boosting margins) on a walk of its own.

Two training kernels replace NumPy passes in Algorithm 1: ``adam_step``
updates the first and second moments and the parameters of
:class:`repro.nn.optim.Adam` in one loop over its flat parameter vector, and
``kmeans_assign`` makes one k-means Lloyd step in one pass over a block's
rows (:meth:`repro.ml.kmeans.KMeans._assign`).  The block's distance gemm
stays in BLAS; the kernel forms the distances from its output, clips them,
takes ``np.argmin``'s nearest centre, and adds each row to its cluster's sum
and count.  Both kernels repeat the IEEE operations of their NumPy
fallbacks in the same order, so their results are bit-identical to them.
The condition for that is ``-ffp-contract=off``: it forbids the compiler to
fuse a multiply and an add into one rounding.  ``-fno-math-errno`` lets
``sqrt`` (correctly rounded either way) vectorise.  The two run
sequentially: each does one pass of a few arithmetic operations per element,
and threads of their own would compete with OpenBLAS's threads for the same
cores (an OpenMP Adam step measured ~5x slower than the serial one on a
2-vCPU host).

The third, ``grow_itree``, grows one isolation tree of
:meth:`repro.novelty.iforest.IsolationForest.fit` as the Python
``_grow_tree`` does, node for node.  It draws through the generator's own
``bitgen_t`` (``rng.bit_generator.ctypes.bit_generator``) with NumPy's
algorithms for ``Generator.integers(d)`` (Lemire's bounded 32-bit draw;
nothing when ``d == 1``) and ``Generator.uniform(lo, hi)``
(``lo + (hi - lo) * next_double``), so every NumPy BitGenerator yields the
same forest, and the same final generator state, on both backends.  It runs
sequentially, one call per tree, under the bit generator's lock.

Every kernel takes raw addresses, and one binding convention checks them.  A
binding checks the arrays that stay put (dtype, C-contiguity, lengths) once
and keeps their references and addresses; a call checks only what changes
from call to call:

* :class:`ForestKernel` binds a forest's six node and tree arrays, once per
  :class:`~repro.ml.flat_tree.FlatForest` (which re-binds when one of its
  arrays is replaced).  :func:`forest_sum` checks ``X`` per call — float64,
  C-contiguous, at least as wide as the highest split feature — and
  allocates the output;
* :class:`AdamStep` binds the optimizer's four flat vectors, once per
  :class:`~repro.nn.optim.Adam`; a call passes only the step's scalars;
* :class:`KMeansAssign` binds the data, its norms and the outputs, once per
  k-means run; a call checks the distance block and the centre norms;
* :class:`ITreeGrower` binds the generator, the leaf-length table and the
  index, scratch, stack and node buffers, once per forest fit; a call checks
  the tree's ``(d, psi)`` subsample.

The forest and Adam bindings hold no library handle: they may outlive a
change of ``REPRO_DISABLE_NATIVE``, so each call looks the library up, and
:func:`forest_sum` checks ``X`` first, so a bad ``X`` raises the same error
on both backends.
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

__all__ = [
    "AdamStep",
    "ForestKernel",
    "ITreeGrower",
    "available",
    "forest_sum",
    "get_num_threads",
    "itree_grower",
    "kmeans_assign",
    "last_compile_error",
    "openmp_enabled",
]

logger = logging.getLogger(__name__)

_C_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#ifdef _OPENMP
#include <omp.h>
#endif

/* Walk every (tree, row) pair of rows [lo, hi) to its leaf, ROW_TILE rows at
 * a time.  Within a tile, trees iterate in the outer loop so each tree's node
 * tables stay cache-hot across the tile, and the tile's rows stay cache-hot
 * across the trees: one pass over all trees for a whole range would stream X
 * from memory once per tree.  Rows advance eight at a time so the dependent
 * load chains of independent rows overlap.  The rows of a group never
 * interact, so every row takes the same comparisons, and EMIT runs in the
 * same tree order t = 0..n_trees-1, for any tile, group or thread range.
 * Leaves self-loop (threshold = +inf), hence the fixed depth-count walk. */
#define ROW_TILE 256
#define STEP(k, cmp_op) n##k = child[n##k] + (r##k[feature[n##k]] cmp_op threshold[n##k])
#define WALK_ROWS(cmp_op, EMIT, lo, hi) \
    for (int64_t tile = (lo); tile < (hi); tile += ROW_TILE) { \
        const int64_t tile_end = tile + ROW_TILE < (hi) ? tile + ROW_TILE : (hi); \
        for (int64_t t = 0; t < n_trees; ++t) { \
            const int32_t root = (int32_t)roots[t]; \
            const int64_t depth = depths[t]; \
            int64_t i = tile; \
            for (; i + 8 <= tile_end; i += 8) { \
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
            for (; i < tile_end; ++i) { \
                const double *row = X + i * d; \
                int32_t node = root; \
                for (int64_t l = 0; l < depth; ++l) \
                    node = child[node] + (row[feature[node]] cmp_op threshold[node]); \
                EMIT(i, node); \
            } \
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

/* Add the leaf payload of every tree, in tree order, into row i's value_dim
 * outputs out[i * value_dim ..].  value is the forest's (n_nodes, value_dim)
 * payload, row-major.  A scalar payload takes its own walk, so the serving
 * walk's inner step stays one load and one add. */
void forest_sum(const double *X, int64_t n, int64_t d,
                const int32_t *feature, const double *threshold,
                const int32_t *child, const double *value, int64_t value_dim,
                const int64_t *roots, const int64_t *depths, int64_t n_trees,
                int strict, int64_t n_threads, double *out)
{
    if (value_dim == 1) {
#define EMIT_SUM(i, node) out[i] += value[node]
        if (strict) { WALK_PARALLEL(>=, EMIT_SUM) } else { WALK_PARALLEL(>, EMIT_SUM) }
#undef EMIT_SUM
    } else {
#define EMIT_SUMS(i, node) do { \
            double *sum = out + (i) * value_dim; \
            const double *leaf = value + (int64_t)(node) * value_dim; \
            for (int64_t j = 0; j < value_dim; ++j) \
                sum[j] += leaf[j]; \
        } while (0)
        if (strict) { WALK_PARALLEL(>=, EMIT_SUMS) } else { WALK_PARALLEL(>, EMIT_SUMS) }
#undef EMIT_SUMS
    }
}

/* One Adam step over n parameters.  Per element this is the NumPy fallback's
 * sequence: m = m*b1 + (1-b1)*g; v = v*b2 + (1-b2)*(g*g);
 * value = value - (lr*(m/bc1)) / (sqrt(v/bc2) + eps). */
void adam_step(double *restrict value, const double *restrict grad,
               double *restrict m, double *restrict v, int64_t n,
               double lr, double beta1, double beta2,
               double bias_correction1, double bias_correction2, double eps)
{
    const double one_minus_beta1 = 1.0 - beta1, one_minus_beta2 = 1.0 - beta2;
    for (int64_t i = 0; i < n; ++i) {
        const double g = grad[i];
        const double mi = m[i] * beta1 + one_minus_beta1 * g;
        const double vi = v[i] * beta2 + one_minus_beta2 * (g * g);
        m[i] = mi;
        v[i] = vi;
        value[i] -= lr * (mi / bias_correction1) / (sqrt(vi / bias_correction2) + eps);
    }
}

/* NumPy's k-means distance (sq_x + sq_c) - 2.0*g, clipped like
 * np.maximum(d2, 0.0): below zero becomes 0.0, a NaN stays. */
static inline double clipped_distance(double sx, double sc, double g)
{
    const double d2 = (sx + sc) - 2.0 * g;
    return d2 < 0.0 ? 0.0 : d2;
}

/* One k-means assignment pass over the m rows of a distance block.  G is the
 * block's BLAS product X_block @ centers.T (m x k).  Each row takes
 * np.argmin's pick of its clipped distances: the first minimum, or the first
 * NaN.  The kernel writes the label and that distance.  When sums is not
 * NULL, it also adds the row to its cluster's sum and count; successive
 * blocks then accumulate every cluster in row-index order. */
void kmeans_assign(const double *restrict G, const double *restrict sq_x,
                   const double *restrict sq_c, const double *restrict X,
                   int64_t m, int64_t k, int64_t d,
                   int64_t *restrict labels, double *restrict nearest_sq,
                   double *restrict sums, int64_t *restrict counts)
{
    for (int64_t i = 0; i < m; ++i) {
        const double *g = G + i * k;
        const double sx = sq_x[i];
        int64_t best = 0;
        double best_d2 = clipped_distance(sx, sq_c[0], g[0]);
        int any_nan = isnan(best_d2);
        for (int64_t j = 1; j < k; ++j) {
            const double d2 = clipped_distance(sx, sq_c[j], g[j]);
            const int closer = d2 < best_d2;
            any_nan |= isnan(d2);
            best = closer ? j : best;
            best_d2 = closer ? d2 : best_d2;
        }
        if (any_nan) {
            /* Rare (overflowed norms): keep the branch-free scan above fast. */
            for (best = 0;; ++best) {
                best_d2 = clipped_distance(sx, sq_c[best], g[best]);
                if (isnan(best_d2))
                    break;
            }
        }
        labels[i] = best;
        nearest_sq[i] = best_d2;
        if (sums != NULL) {
            const double *row = X + i * d;
            double *sum = sums + best * d;
            for (int64_t j = 0; j < d; ++j)
                sum[j] += row[j];
            counts[best] += 1;
        }
    }
}

/* NumPy's bit generator interface, as in numpy/random/bitgen.h. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} repro_bitgen_t;

/* Generator.integers(rng + 1) for 0 < rng < 0xFFFFFFFF: NumPy's
 * buffered_bounded_lemire_uint32, Lemire's draw with rejection. */
static uint32_t bounded_uint32(repro_bitgen_t *bitgen, uint32_t rng)
{
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)bitgen->next_uint32(bitgen->state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bitgen->next_uint32(bitgen->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

static inline void new_leaf(int32_t *feature, double *threshold, int32_t *child,
                            double *value, int64_t slot)
{
    feature[slot] = 0;
    threshold[slot] = INFINITY;
    child[slot] = (int32_t)slot;
    value[slot] = 0.0;
}

/* Grow one isolation tree over the d x psi subsample sub (one contiguous row
 * per column) into the node arrays, from slot *n_nodes on.  This is
 * repro.novelty.iforest._grow_tree step for step: pre-order, left subtree
 * first; a split node draws Generator.integers(d) and, when the column's
 * min and max differ, Generator.uniform(min, max); the stable "<" partition
 * of the node's index slice; leaves hold depth + leaf_length[size].  On
 * return *n_nodes is the next free slot and *tree_depth the deepest leaf.
 * Returns 1 where integers(0) raises and 2 where uniform raises (max - min
 * overflows), before that node draws anything; 0 otherwise. */
int64_t grow_itree(const double *sub, int64_t d, int64_t psi, int64_t max_depth,
                   const double *leaf_length, repro_bitgen_t *bitgen,
                   int64_t *idx, int64_t *scratch, int64_t *stack,
                   int32_t *feature, double *threshold, int32_t *child, double *value,
                   int64_t *n_nodes, int64_t *tree_depth)
{
    int64_t next = *n_nodes, top = 0, deepest = 0;
    for (int64_t i = 0; i < psi; ++i)
        idx[i] = i;
    new_leaf(feature, threshold, child, value, next);
    stack[0] = next++; stack[1] = 0; stack[2] = psi; stack[3] = 0;
    top = 1;
    while (top > 0) {
        const int64_t *entry = stack + 4 * --top;
        const int64_t slot = entry[0], start = entry[1], stop = entry[2], depth = entry[3];
        const int64_t size = stop - start;
        if (depth < max_depth && size > 1) {
            if (d == 0)
                return 1;
            const int64_t f = d == 1 ? 0 : (int64_t)bounded_uint32(bitgen, (uint32_t)(d - 1));
            const double *column = sub + f * psi;
            double lo = column[idx[start]], hi = lo;
            for (int64_t i = start + 1; i < stop; ++i) {
                const double v = column[idx[i]];
                lo = v < lo ? v : lo;
                hi = v > hi ? v : hi;
            }
            if (lo != hi) {
                const double range = hi - lo;
                if (!isfinite(range))
                    return 2;
                const double split = lo + range * bitgen->next_double(bitgen->state);
                int64_t middle = start, n_right = 0;
                for (int64_t i = start; i < stop; ++i) {
                    const int64_t row = idx[i];
                    if (column[row] < split)
                        idx[middle++] = row;
                    else
                        scratch[n_right++] = row;
                }
                for (int64_t i = 0; i < n_right; ++i)
                    idx[middle + i] = scratch[i];
                const int64_t first = next;
                next += 2;
                feature[slot] = (int32_t)f;
                threshold[slot] = split;
                child[slot] = (int32_t)first;
                new_leaf(feature, threshold, child, value, first);
                new_leaf(feature, threshold, child, value, first + 1);
                int64_t *push = stack + 4 * top;
                push[0] = first + 1; push[1] = middle; push[2] = stop; push[3] = depth + 1;
                push[4] = first; push[5] = start; push[6] = middle; push[7] = depth + 1;
                top += 2;
                continue;
            }
        }
        value[slot] = (double)depth + leaf_length[size];
        deepest = depth > deepest ? depth : deepest;
    }
    *n_nodes = next;
    *tree_depth = deepest;
    return 0;
}
"""

#: Flags of every compile.  ``-ffp-contract=off`` keeps each multiply and add
#: separately rounded, the condition for the training kernels' bit-identity.
_CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")

_CACHE_DIR = Path(__file__).resolve().parent / "_native_cache"

#: Rows each thread of a forest walk gets at least: a batch of ``n`` rows runs
#: on ``min(n_threads, n // MIN_ROWS_PER_THREAD)`` threads, at least one.
#: Measured with 100 trees on 56 features (2-vCPU x86-64 host, tight loop),
#: two threads take 1.8-2x the time of one on 8 rows, break even at 32, and
#: take 0.7x from 128 rows on (256 rows: 274-310 -> 150-166 us).
MIN_ROWS_PER_THREAD = 64

#: The fewest rows that run on more than one thread.
MIN_PARALLEL_ROWS = 2 * MIN_ROWS_PER_THREAD

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
    cmd = [cc, *_CFLAGS]
    if openmp:
        cmd.append("-fopenmp")
    cmd += ["-o", str(out_path), str(src_path), "-lm"]
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
    # The compiler identity and flags participate in the cache key: switching
    # $CC or the flags must not silently reuse a different build.
    key = f"{cc}\n{' '.join(_CFLAGS)}\n{_C_SOURCE}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
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
    lib = _declare(ctypes.CDLL(str(lib_path)))
    last_compile_error = None
    return lib


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """``lib`` with the C signature of every kernel declared."""
    # Every kernel takes raw addresses; the bindings below check the arrays.
    pointer, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.repro_openmp_enabled.argtypes = []
    lib.repro_openmp_enabled.restype = i64
    lib.forest_sum.argtypes = [
        pointer, i64, i64, *[pointer] * 4, i64, pointer, pointer, i64, ctypes.c_int,
        i64, pointer,
    ]
    lib.forest_sum.restype = None
    lib.adam_step.argtypes = [*[pointer] * 4, i64, *[f64] * 6]
    lib.adam_step.restype = None
    lib.kmeans_assign.argtypes = [*[pointer] * 4, *[i64] * 3, *[pointer] * 4]
    lib.kmeans_assign.restype = None
    lib.grow_itree.argtypes = [pointer, *[i64] * 3, *[pointer] * 11]
    lib.grow_itree.restype = i64
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


def get_num_threads() -> int:
    """Thread cap of the forest walk: ``REPRO_NUM_THREADS`` or all CPUs.

    Invalid or non-positive values fall back to ``1`` (sequential), so a
    misconfigured environment degrades to the slow-but-correct path instead
    of raising mid-stream.
    """
    raw = os.environ.get("REPRO_NUM_THREADS")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            return 1
    return os.cpu_count() or 1


def _effective_threads(n_rows: int, n_threads: int | None) -> int:
    if not _openmp or n_rows < MIN_PARALLEL_ROWS:
        return 1
    if n_threads is None:
        n_threads = get_num_threads()
    return max(1, min(n_threads, n_rows // MIN_ROWS_PER_THREAD))


def _address(array: np.ndarray, dtype: type = np.float64) -> int:
    """Address of ``array`` after the checks ``ndpointer`` argtypes made."""
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise TypeError(f"expected a C-contiguous {np.dtype(dtype).name} array")
    return array.ctypes.data


class ForestKernel:
    """``forest_sum`` bound to one forest's node arrays.

    Binding checks ``feature`` and ``child`` (int32), ``threshold`` (float64),
    ``value`` (float64, ``(n_nodes, value_dim)``), ``roots`` and ``depths``
    (int64) once, all C-contiguous, and keeps them with their addresses.  The
    owner re-binds when :meth:`binds` says one of its arrays is no longer the
    bound one.  Each call checks only ``X``: float64, C-contiguous and at
    least :attr:`n_features` columns wide.
    """

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        child: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
        depths: np.ndarray,
        strict: bool,
    ) -> None:
        if (
            value.ndim != 2
            or len({feature.shape, threshold.shape, child.shape, value.shape[:1]}) != 1
            or roots.shape != depths.shape
        ):
            raise ValueError("node arrays and tree arrays must each share one length")
        self.arrays = (feature, threshold, child, value, roots, depths)
        self.strict = strict
        self.value_dim = int(value.shape[1])
        #: Columns every row needs: the walk reads ``row[feature[node]]``.
        self.n_features = int(feature.max()) + 1
        self._args = (
            _address(feature, np.int32), _address(threshold), _address(child, np.int32),
            _address(value), self.value_dim, _address(roots, np.int64),
            _address(depths, np.int64), int(roots.shape[0]), int(strict),
        )

    def __reduce__(self) -> tuple:
        # A copy (``copy.deepcopy``, pickle) binds the copied arrays afresh;
        # copying the addresses would walk the original's memory.
        return ForestKernel, (*self.arrays, self.strict)

    def binds(self, arrays: tuple, strict: bool) -> bool:
        """Whether ``arrays`` (in constructor order) and ``strict`` are the bound ones."""
        return strict == self.strict and all(a is b for a, b in zip(arrays, self.arrays))

    def check(self, X: np.ndarray) -> int:
        """``X``'s address, once its dtype, layout and width are checked."""
        if X.ndim != 2 or X.shape[1] < self.n_features:
            raise ValueError(
                f"X of shape {X.shape} must be 2-D with at least {self.n_features} "
                f"columns: the forest splits on feature {self.n_features - 1}"
            )
        return _address(X)


def forest_sum(
    X: np.ndarray, kernel: ForestKernel, n_threads: int | None = None
) -> np.ndarray | None:
    """``(n_samples, value_dim)`` sum of leaf payloads over all trees, or ``None``.

    ``None`` means the native path is unavailable.  ``X`` is checked before
    the library is looked up, so a bad ``X`` raises the same error with and
    without the native path.  ``n_threads`` caps the OpenMP row parallelism
    (``None`` reads ``REPRO_NUM_THREADS``); any thread count returns
    bit-identical sums, each row's added over the trees in order from zero.
    """
    address = kernel.check(X)
    lib = _get_lib()
    if lib is None:
        return None
    n = X.shape[0]
    out = np.zeros((n, kernel.value_dim))
    lib.forest_sum(
        address, n, X.shape[1], *kernel._args, _effective_threads(n, n_threads),
        out.ctypes.data,
    )
    return out


class AdamStep:
    """``adam_step`` bound to one optimizer's flat vectors.

    Binding checks ``value``, ``grad``, ``m`` and ``v`` (float64,
    C-contiguous, one length; ``value``, ``m`` and ``v`` writeable) once and
    keeps their addresses; a call passes only the step's scalars.
    """

    def __init__(
        self, value: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray
    ) -> None:
        if not (value.ndim == 1 and value.shape == grad.shape == m.shape == v.shape):
            raise ValueError("value, grad, m and v must be vectors of one length")
        if not (value.flags.writeable and m.flags.writeable and v.flags.writeable):
            raise ValueError("value, m and v are updated in place and must be writeable")
        self._arrays = (value, grad, m, v)  # alive as long as their addresses
        self._args = (*map(_address, self._arrays), value.shape[0])

    def __reduce__(self) -> tuple:
        return AdamStep, self._arrays  # a copy binds the copied vectors

    def __call__(
        self,
        lr: float,
        beta1: float,
        beta2: float,
        bias_correction1: float,
        bias_correction2: float,
        eps: float,
    ) -> bool:
        """One in-place Adam update; ``False`` (nothing done) if unavailable.

        The result is bit-identical to the NumPy sequence in
        :class:`repro.nn.optim.Adam`.
        """
        lib = _get_lib()
        if lib is None:
            return False
        lib.adam_step(
            *self._args, lr, beta1, beta2, bias_correction1, bias_correction2, eps
        )
        return True


class KMeansAssign:
    """The ``kmeans_assign`` kernel bound to one data matrix, with its outputs.

    Binding checks ``X`` and ``sq_x`` and allocates ``labels``,
    ``nearest_sq``, ``sums`` and ``counts`` once per k-means run, and keeps
    their addresses; each call checks only its distance block and centre
    norms.
    """

    def __init__(
        self, lib: ctypes.CDLL, X: np.ndarray, sq_x: np.ndarray, n_clusters: int
    ) -> None:
        self._n, self._d = X.shape
        self._k = n_clusters
        if sq_x.shape != (self._n,):
            raise ValueError("sq_x must hold one squared norm per row of X")
        self.labels = np.empty(self._n, dtype=np.int64)
        self.nearest_sq = np.empty(self._n, dtype=np.float64)
        self.sums = np.zeros((n_clusters, self._d), dtype=np.float64)
        self.counts = np.zeros(n_clusters, dtype=np.int64)
        self._fn = lib.kmeans_assign
        self._X, self._sq_x = X, sq_x  # alive as long as their addresses
        self._addresses = (
            _address(X), _address(sq_x), self.labels.ctypes.data,
            self.nearest_sq.ctypes.data, self.sums.ctypes.data, self.counts.ctypes.data,
        )

    def __call__(
        self, start: int, G: np.ndarray, sq_c: np.ndarray, accumulate: bool
    ) -> None:
        """Assign rows ``[start, start + len(G))`` from their distance gemm ``G``.

        ``G`` is ``X[start:stop] @ centers.T`` and ``sq_c`` the centres'
        squared norms.  With ``accumulate`` the rows are also added to
        ``sums`` and ``counts``; a pass starts at row 0, where they are zeroed.
        """
        m = G.shape[0]
        if not (G.shape == (m, self._k) and sq_c.shape == (self._k,) and 0 <= start <= self._n - m):
            raise ValueError("G and sq_c must match the cluster count and X's rows")
        X, sq_x, labels, nearest_sq, sums, counts = self._addresses
        if accumulate and start == 0:
            self.sums.fill(0.0)
            self.counts.fill(0)
        self._fn(
            _address(G), sq_x + 8 * start, _address(sq_c), X + 8 * start * self._d,
            m, self._k, self._d, labels + 8 * start, nearest_sq + 8 * start,
            sums if accumulate else None, counts if accumulate else None,
        )


def kmeans_assign(X: np.ndarray, sq_x: np.ndarray, n_clusters: int) -> KMeansAssign | None:
    """The fused k-means kernel bound to ``X`` and its squared row norms, or ``None``.

    ``None`` means the native path is unavailable.  The kernel writes each
    row's label and clipped squared distance bit-identically to NumPy's
    ``np.maximum(sq_x + sq_c - 2.0 * G, 0.0)`` and ``argmin``; the cluster
    sums add each cluster's rows in index order from +0.0.
    """
    lib = _get_lib()
    if lib is None:
        return None
    return KMeansAssign(lib, X, sq_x, n_clusters)


class ITreeGrower:
    """``grow_itree`` bound to one :meth:`~repro.novelty.iforest.IsolationForest.fit`.

    Binding checks ``leaf_length`` (float64, ``c(0..psi)``), keeps the
    generator with its ``bitgen_t`` address, allocates the index, scratch and
    stack buffers and node buffers with room for ``n_trees`` trees, and keeps
    their addresses; each call checks only ``sub``: float64, C-contiguous,
    shape ``(d, psi)``.  Trees grow one after another into the node buffers,
    with absolute child ids, as :func:`repro.novelty.iforest._grow_tree` grows
    them into its lists.
    """

    def __init__(
        self,
        lib: ctypes.CDLL,
        rng: np.random.Generator,
        n_features: int,
        psi: int,
        max_depth: int,
        leaf_length: np.ndarray,
        n_trees: int,
    ) -> None:
        if leaf_length.shape != (psi + 1,):
            raise ValueError("leaf_length must hold c(size) for every size 0..psi")
        self._rng = rng  # alive as long as its bitgen_t address
        self._shape = (n_features, psi)
        # A node at depth max_depth is a leaf, so no tree has more nodes.
        capacity = n_trees * (2 ** (max_depth + 1) - 1)
        self._nodes = (
            np.empty(capacity, np.int32), np.empty(capacity),
            np.empty(capacity, np.int32), np.empty(capacity),
        )
        # The stack holds at most one pending sibling per level, plus the node.
        buffers = (np.empty(psi, np.int64), np.empty(psi, np.int64),
                   np.empty(4 * (max_depth + 1), np.int64))
        self._counts = np.zeros(2, np.int64)  # next free slot, last tree's depth
        self._arrays = (leaf_length, buffers)  # alive as long as their addresses
        self._fn = lib.grow_itree
        counts = self._counts.ctypes.data
        self._args = (
            n_features, psi, max_depth, _address(leaf_length),
            rng.bit_generator.ctypes.bit_generator.value,
            *(b.ctypes.data for b in buffers), *(a.ctypes.data for a in self._nodes),
            counts, counts + 8,
        )

    @property
    def n_nodes(self) -> int:
        """Slots grown so far; the next tree's root takes this one."""
        return int(self._counts[0])

    def __call__(self, sub: np.ndarray) -> int:
        """Grow one tree over its transposed subsample ``sub``; return its depth."""
        if sub.shape != self._shape:
            raise ValueError(f"sub must have shape {self._shape}, got {sub.shape}")
        address = _address(sub)
        # The call releases the GIL; the lock keeps other threads off the
        # generator, as each Generator method does.
        with self._rng.bit_generator.lock:
            status = self._fn(address, *self._args)
        if status == 1:
            raise ValueError("high <= 0")
        if status == 2:
            raise OverflowError("high - low range exceeds valid bounds")
        return int(self._counts[1])

    def nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Views of the grown ``feature``, ``threshold``, ``child`` and ``value`` slots."""
        n = self.n_nodes
        return tuple(a[:n] for a in self._nodes)


def itree_grower(
    rng: np.random.Generator,
    n_features: int,
    psi: int,
    max_depth: int,
    leaf_length: np.ndarray,
    n_trees: int,
) -> ITreeGrower | None:
    """The isolation-tree grower bound to ``rng`` for one fit, or ``None``.

    ``None`` means the native path is unavailable, or ``n_features`` is at
    least ``2**32``, where ``Generator.integers`` leaves Lemire's 32-bit draw.
    The grower draws through the generator's own ``bitgen_t``, so any NumPy
    BitGenerator gives the forest and the final state of the NumPy fallback.
    """
    lib = _get_lib()
    if lib is None or n_features >= 2**32:
        return None
    return ITreeGrower(lib, rng, n_features, psi, max_depth, leaf_length, n_trees)
