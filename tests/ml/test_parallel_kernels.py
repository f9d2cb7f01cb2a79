"""The forest walk on several cores: bit-identical sums for any thread count.

The determinism contract under test: for any ``REPRO_NUM_THREADS`` and any
leaf-payload width, the native walk (OpenMP, or the sequential build of the
same source) and the pure-NumPy fallback return **bit-identical** sums,
because threads only take disjoint row ranges and every row adds its
payloads over the trees in the same order.
"""

from __future__ import annotations

import ctypes
import re
import shutil

import numpy as np
import pytest

from repro.ml import native
from repro.ml.flat_tree import FlatForest, FlatTree
from repro.ml.native import get_num_threads


class TestThreadConfig:
    def test_env_cap_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert get_num_threads() == 3

    def test_invalid_env_degrades_to_sequential(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "many")
        assert get_num_threads() == 1
        monkeypatch.setenv("REPRO_NUM_THREADS", "-2")
        assert get_num_threads() == 1

    def test_unset_env_uses_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        assert get_num_threads() == (os.cpu_count() or 1)


def _toy_forest(value_dim: int, n_trees: int, seed: int) -> FlatForest:
    """Random full-ish trees with the given payload width."""
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_trees):
        # root + two children, one child split again: 5 nodes, depth 2
        feature = np.array([0, -1, 1, -1, -1], dtype=np.int64)
        threshold = np.array(
            [rng.normal(), 0.0, rng.normal(), 0.0, 0.0], dtype=np.float64
        )
        left = np.array([1, -1, 3, -1, -1], dtype=np.int64)
        right = np.array([2, -1, 4, -1, -1], dtype=np.int64)
        value = rng.normal(size=(5, value_dim))
        trees.append(
            FlatTree(
                feature=feature,
                threshold=threshold,
                left=left,
                right=right,
                value=value,
            )
        )
    return FlatForest.from_flat_trees(trees)


@pytest.fixture(params=["numpy", "native"])
def backend(request, monkeypatch):
    """Force the pure-NumPy backend or require the native one."""
    if request.param == "numpy":
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    else:
        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        if not native.available():
            pytest.skip("native kernels unavailable in this environment")
    return request.param


class TestForestParallelEquivalence:
    N_ROWS = 6000  # above MIN_PARALLEL_ROWS so threading engages

    @pytest.mark.parametrize("value_dim", [1, 3])
    def test_sum_values_bit_identical_any_thread_count(
        self, backend, monkeypatch, value_dim
    ):
        forest = _toy_forest(value_dim, n_trees=7, seed=0)
        X = np.random.default_rng(1).normal(size=(self.N_ROWS, 2))
        monkeypatch.setenv("REPRO_NUM_THREADS", "1")
        sequential = forest.sum_values(X)
        monkeypatch.setenv("REPRO_NUM_THREADS", "5")
        threaded = forest.sum_values(X)
        np.testing.assert_array_equal(sequential, threaded)

    @pytest.mark.parametrize("value_dim", [1, 3])
    def test_backends_agree(self, monkeypatch, value_dim):
        if not native.available():
            pytest.skip("native kernels unavailable in this environment")
        forest = _toy_forest(value_dim, n_trees=5, seed=4)
        X = np.random.default_rng(5).normal(size=(self.N_ROWS, 2))
        monkeypatch.setenv("REPRO_NUM_THREADS", "4")
        native_out = forest.sum_values(X)
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        numpy_out = forest.sum_values(X)
        np.testing.assert_array_equal(native_out, numpy_out)


def _random_tree(
    rng: np.random.Generator, strict: bool, max_depth: int, value_dim: int = 1
) -> FlatTree:
    """A random unbalanced tree whose integer thresholds tie with integer X."""
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(depth: int) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(rng.normal(size=value_dim))
        if depth < max_depth and rng.random() < 0.75:
            feature[node] = int(rng.integers(3))
            threshold[node] = float(rng.integers(-2, 3))
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
        return node

    grow(0)
    return FlatTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
        strict=strict,
    )


def _row_tile() -> int:
    """The C walk's tile length, read from the kernel source."""
    return int(re.search(r"#define ROW_TILE (\d+)", native._C_SOURCE).group(1))


def _around(*counts: int) -> set[int]:
    return {n + k for n in counts for k in (-1, 0, 1)}


class TestNativeKernelMatchesNumpy:
    """The tiled, eight-row native walk equals the NumPy backend bit for bit.

    Payloads one wide take the walk's scalar step, wider ones its loop over
    the payload; both are checked.
    Row counts around multiples of eight reach the interleaved groups and
    the single-row tail.  Counts around ``MIN_ROWS_PER_THREAD`` and
    ``MIN_PARALLEL_ROWS`` cross from one thread to several, and counts
    around multiples of the row tile end a thread's range on a full tile,
    one row into a new tile, or one row short of it.  From
    ``MIN_PARALLEL_ROWS`` on, thread ranges have lengths that are not
    multiples of eight or of the tile.
    """

    ROWS = sorted(
        {1, 3, 7, 8, 9, 15, 17, 2049, 6001}
        | _around(native.MIN_ROWS_PER_THREAD, native.MIN_PARALLEL_ROWS)
        | _around(_row_tile(), 2 * _row_tile(), 4 * _row_tile())
    )

    @pytest.fixture(autouse=True)
    def require_native(self):
        if not native.available():
            pytest.skip("native kernels unavailable in this environment")

    @staticmethod
    def _forest(strict: bool, value_dim: int) -> FlatForest:
        rng = np.random.default_rng(11 if strict else 12)
        trees = [_random_tree(rng, strict, 6, value_dim) for _ in range(13)]
        return FlatForest.from_flat_trees(trees)

    @pytest.mark.parametrize("value_dim", [1, 3])
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("n", ROWS)
    def test_sum_equals_numpy_any_thread_count(self, monkeypatch, strict, n, value_dim):
        forest = self._forest(strict, value_dim)
        X = np.random.default_rng(n).integers(-3, 4, size=(n, 3)).astype(np.float64)
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        expected = forest.sum_values(X)
        monkeypatch.delenv("REPRO_DISABLE_NATIVE")
        kernel = native.ForestKernel(
            forest.feature, forest.threshold, forest.child,
            forest.value, forest.roots, forest.depths, strict,
        )
        for threads in (1, 2, 5):
            monkeypatch.setenv("REPRO_NUM_THREADS", str(threads))
            sums = native.forest_sum(X, kernel)
            assert sums.tobytes() == expected.tobytes()


class TestSequentialBuild:
    """The kernel source built without ``-fopenmp``, as toolchains lacking it build it."""

    def test_sums_match_the_loaded_build(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        if shutil.which(native._compiler()) is None or not native.available():
            pytest.skip("no C compiler, or no loaded native build to compare with")
        src = tmp_path / "kernel.c"
        src.write_text(native._C_SOURCE)
        error = native._try_compile(native._compiler(), src, tmp_path / "seq.so", openmp=False)
        assert error is None, error
        sequential = native._declare(ctypes.CDLL(str(tmp_path / "seq.so")))
        assert sequential.repro_openmp_enabled() == 0
        X = np.random.default_rng(7).integers(-3, 4, size=(3001, 3)).astype(np.float64)
        for value_dim in (1, 3):
            forest = TestNativeKernelMatchesNumpy._forest(True, value_dim)
            kernel = native.ForestKernel(
                forest.feature, forest.threshold, forest.child,
                forest.value, forest.roots, forest.depths, forest.strict,
            )
            expected = native.forest_sum(X, kernel, 2)
            with monkeypatch.context() as swapped:
                swapped.setattr(native, "_lib", sequential)
                swapped.setattr(native, "_openmp", False)
                sums = native.forest_sum(X, kernel, 2)
            assert sums.tobytes() == expected.tobytes()


class TestEffectiveThreads:
    """How many threads a forest walk of ``n_rows`` rows gets."""

    FLOOR = native.MIN_ROWS_PER_THREAD

    def test_min_parallel_rows_is_two_floors(self):
        assert native.MIN_PARALLEL_ROWS == 2 * self.FLOOR

    def test_one_thread_without_openmp(self, monkeypatch):
        monkeypatch.setattr(native, "_openmp", False)
        assert native._effective_threads(100 * self.FLOOR, 8) == 1

    def test_one_thread_below_min_parallel_rows(self, monkeypatch):
        monkeypatch.setattr(native, "_openmp", True)
        for n in (0, 1, self.FLOOR, native.MIN_PARALLEL_ROWS - 1):
            assert native._effective_threads(n, 8) == 1
        assert native._effective_threads(native.MIN_PARALLEL_ROWS, 8) == 2

    def test_capped_by_threads_and_by_rows_per_thread(self, monkeypatch):
        monkeypatch.setattr(native, "_openmp", True)
        assert native._effective_threads(100 * self.FLOOR, 3) == 3
        assert native._effective_threads(100 * self.FLOOR, 1) == 1
        assert native._effective_threads(3 * self.FLOOR + 5, 64) == 3
        assert native._effective_threads(4 * self.FLOOR - 1, 64) == 3

    def test_unset_thread_count_reads_the_environment(self, monkeypatch):
        monkeypatch.setattr(native, "_openmp", True)
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert native._effective_threads(100 * self.FLOOR, None) == 3


class TestNativeCompileDiagnostics:
    @pytest.fixture
    def fresh_native_state(self, monkeypatch, tmp_path):
        """Reset the module's memoized load state so a compile is attempted."""
        monkeypatch.setattr(native, "_CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_load_attempted", False)
        monkeypatch.setattr(native, "_openmp", False)
        monkeypatch.setattr(native, "last_compile_error", None)
        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)

    def test_cc_env_honored_and_failure_surfaced(self, fresh_native_state, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/compiler-for-test")
        assert not native.available()
        assert native.last_compile_error is not None
        assert "/nonexistent/compiler-for-test" in native.last_compile_error

    def test_compiler_stderr_captured(self, fresh_native_state, monkeypatch, tmp_path):
        # A "compiler" that writes to stderr and fails: the message must be
        # preserved so a silent fallback to NumPy is diagnosable.
        fake_cc = tmp_path / "failing-cc"
        fake_cc.write_text("#!/bin/sh\necho 'fatal: no such flag' >&2\nexit 1\n")
        fake_cc.chmod(0o755)
        monkeypatch.setenv("CC", str(fake_cc))
        assert not native.available()
        assert native.last_compile_error is not None
        assert "fatal: no such flag" in native.last_compile_error

    def test_successful_load_clears_error(self, monkeypatch):
        if not native.available():
            pytest.skip("native kernels unavailable in this environment")
        assert native.last_compile_error is None
        # openmp_enabled() never raises, regardless of toolchain support.
        assert native.openmp_enabled() in (True, False)
