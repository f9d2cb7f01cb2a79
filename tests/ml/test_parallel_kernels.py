"""Multi-core kernel layer: thread-pool helpers, bit-identical parallel scoring.

The determinism contract under test: for any ``REPRO_NUM_THREADS``, both
traversal backends (native/OpenMP and pure NumPy) and the blockwise
``pairwise_topk`` produce **bit-identical** results to their sequential runs,
because parallelism only distributes disjoint row blocks and never reorders
per-row arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import native
from repro.ml.distances import pairwise_topk
from repro.ml.flat_tree import FlatForest, FlatTree
from repro.ml.parallel import (
    get_num_threads,
    map_row_blocks,
    row_block_bounds,
    run_row_blocks,
)


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


class TestRowBlocks:
    def test_bounds_cover_range_disjointly(self):
        for n, blocks in [(10, 3), (7, 7), (100, 1), (5, 8)]:
            bounds = row_block_bounds(n, blocks)
            flat = [i for start, stop in bounds for i in range(start, stop)]
            assert flat == list(range(n))

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            row_block_bounds(-1, 2)
        with pytest.raises(ValueError):
            row_block_bounds(10, 0)

    def test_small_batches_stay_on_calling_thread(self):
        import threading

        seen = []

        def kernel(start, stop):
            seen.append((start, stop, threading.current_thread().name))

        used_pool = run_row_blocks(kernel, 100, n_threads=8, min_block_rows=1024)
        assert not used_pool
        assert seen == [(0, 100, threading.main_thread().name)]

    def test_large_batches_split_and_cover(self):
        out = np.zeros(10_000)

        def kernel(start, stop):
            out[start:stop] += 1.0

        run_row_blocks(kernel, 10_000, n_threads=4, min_block_rows=1000)
        np.testing.assert_array_equal(out, np.ones(10_000))

    def test_kernel_exception_propagates(self):
        def kernel(start, stop):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_row_blocks(kernel, 10_000, n_threads=4, min_block_rows=1000)
        with pytest.raises(RuntimeError, match="boom"):
            map_row_blocks(kernel, [(0, 5), (5, 10)], n_threads=4)


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
    N_ROWS = 6000  # above MIN_PARALLEL_ROWS / MIN_BLOCK_ROWS so threading engages

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

    def test_apply_bit_identical_any_thread_count(self, backend, monkeypatch):
        forest = _toy_forest(1, n_trees=4, seed=2)
        X = np.random.default_rng(3).normal(size=(self.N_ROWS, 2))
        monkeypatch.setenv("REPRO_NUM_THREADS", "1")
        sequential = forest.apply(X)
        monkeypatch.setenv("REPRO_NUM_THREADS", "5")
        threaded = forest.apply(X)
        np.testing.assert_array_equal(sequential, threaded)

    def test_backends_agree(self, monkeypatch):
        if not native.available():
            pytest.skip("native kernels unavailable in this environment")
        forest = _toy_forest(1, n_trees=5, seed=4)
        X = np.random.default_rng(5).normal(size=(self.N_ROWS, 2))
        monkeypatch.setenv("REPRO_NUM_THREADS", "4")
        native_out = forest.sum_values(X)
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        numpy_out = forest.sum_values(X)
        np.testing.assert_array_equal(native_out, numpy_out)


def _random_tree(rng: np.random.Generator, strict: bool, max_depth: int) -> FlatTree:
    """A random unbalanced tree whose integer thresholds tie with integer X."""
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(depth: int) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append([rng.normal()])
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


class TestNativeKernelMatchesNumpy:
    """The eight-row native walk equals the NumPy backend bit for bit.

    Row counts around multiples of eight reach the interleaved groups, the
    single-row tail and, from ``MIN_PARALLEL_ROWS`` on, thread ranges whose
    lengths are not multiples of eight.
    """

    ROWS = [1, 3, 7, 8, 9, 15, 17, 255, 256, 257, 2049, 6001]

    @pytest.fixture(autouse=True)
    def require_native(self):
        if not native.available():
            pytest.skip("native kernels unavailable in this environment")

    @staticmethod
    def _forest(strict: bool) -> FlatForest:
        rng = np.random.default_rng(11 if strict else 12)
        trees = [_random_tree(rng, strict, max_depth=6) for _ in range(13)]
        return FlatForest.from_flat_trees(trees)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("n", ROWS)
    def test_sum_and_apply_equal_numpy_any_thread_count(self, monkeypatch, strict, n):
        forest = self._forest(strict)
        X = np.random.default_rng(n).integers(-3, 4, size=(n, 3)).astype(np.float64)
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        expected_sum = forest.sum_values(X)[:, 0]
        expected_leaves = forest.apply(X)
        monkeypatch.delenv("REPRO_DISABLE_NATIVE")
        for threads in (1, 2, 5):
            monkeypatch.setenv("REPRO_NUM_THREADS", str(threads))
            sums = native.forest_sum(
                X, forest.feature, forest.threshold, forest.child,
                forest._value_flat, forest.roots, forest.depths, strict,
            )
            leaves = native.forest_apply(
                X, forest.feature, forest.threshold, forest.child,
                forest.roots, forest.depths, strict,
            )
            np.testing.assert_array_equal(sums, expected_sum)
            np.testing.assert_array_equal(leaves, expected_leaves)


class TestPairwiseTopkParallel:
    def test_threaded_blocks_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4000, 6))
        B = rng.normal(size=(300, 6))
        monkeypatch.setenv("REPRO_NUM_THREADS", "1")
        idx_seq, dist_seq = pairwise_topk(A, B, 4, block_size=256)
        monkeypatch.setenv("REPRO_NUM_THREADS", "6")
        idx_par, dist_par = pairwise_topk(A, B, 4, block_size=256)
        np.testing.assert_array_equal(idx_seq, idx_par)
        np.testing.assert_array_equal(dist_seq, dist_par)

    def test_exclude_self_threaded(self, monkeypatch):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(2500, 4))
        monkeypatch.setenv("REPRO_NUM_THREADS", "1")
        seq = pairwise_topk(A, A, 3, block_size=200, exclude_self=True)
        monkeypatch.setenv("REPRO_NUM_THREADS", "4")
        par = pairwise_topk(A, A, 3, block_size=200, exclude_self=True)
        np.testing.assert_array_equal(seq[0], par[0])
        np.testing.assert_array_equal(seq[1], par[1])


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
