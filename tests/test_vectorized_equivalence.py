"""Equivalence of the vectorized batch-inference paths against naive references.

Every scoring path that was vectorized (flattened trees, the blockwise top-k
neighbour kernel, k-means assignment/updates) must
reproduce the retained naive reference implementation to within
``rtol=1e-9`` — most paths are required to be bit-identical.  The flat-forest
and k-means paths are exercised both with the native (compiled) kernels and
with the pure-NumPy fallback (``REPRO_DISABLE_NATIVE``).
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from repro.ml import (
    FlatForest,
    KMeans,
    flatten_tree,
    pairwise_euclidean,
    pairwise_squared_euclidean,
    pairwise_topk,
)
from repro.novelty import (
    DeepIsolationForest,
    IsolationForest,
    LocalOutlierFactor,
)
from repro.novelty.iforest import average_path_length
from repro.supervised import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from repro.utils.random import check_random_state
from repro.utils.validation import check_array


@pytest.fixture(params=["native", "numpy"])
def traversal_backend(request, monkeypatch):
    """Run a test with the native kernels and with the pure-NumPy fallback."""
    if request.param == "numpy":
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    else:
        from repro.ml import native

        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        if not native.available():
            pytest.skip("native kernels unavailable (no C compiler)")
    return request.param


def _random_data(seed: int = 0, n: int = 300, d: int = 6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(np.int64)
    return X, y, rng


class TestFlatTreeEquivalence:
    def test_classifier_matches_naive(self, traversal_backend):
        X, y, rng = _random_data(0)
        y[::7] += 1  # three classes
        tree = DecisionTreeClassifier(max_depth=7, random_state=0).fit(X, y)
        X_query = rng.normal(size=(500, X.shape[1]))
        np.testing.assert_array_equal(
            tree._predict_values(X_query), tree._predict_values_naive(X_query)
        )

    def test_regressor_matches_naive(self, traversal_backend):
        X, _, rng = _random_data(1)
        y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=X.shape[0])
        tree = DecisionTreeRegressor(max_depth=7, random_state=0).fit(X, y)
        X_query = rng.normal(size=(500, X.shape[1]))
        np.testing.assert_array_equal(
            tree._predict_values(X_query), tree._predict_values_naive(X_query)
        )

    def test_single_feature_input(self, traversal_backend):
        X, _, rng = _random_data(2, d=1)
        y = (X[:, 0] > 0).astype(np.int64)
        tree = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        X_query = rng.normal(size=(100, 1))
        np.testing.assert_array_equal(
            tree._predict_values(X_query), tree._predict_values_naive(X_query)
        )

    def test_empty_query(self, traversal_backend):
        X, y, _ = _random_data(3)
        tree = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        assert tree._predict_values(np.empty((0, X.shape[1]))).shape == (0, 2)

    def test_flat_tree_frontier_traversal_matches_naive(self):
        # FlatTree.apply/predict is the mid-level NumPy frontier traversal;
        # keep it equivalent even though hot paths compile to FlatForest.
        X, y, rng = _random_data(5)
        tree = DecisionTreeClassifier(max_depth=6, random_state=0).fit(X, y)
        X_query = rng.normal(size=(200, X.shape[1]))
        np.testing.assert_array_equal(
            tree.flat_.predict(X_query), tree._predict_values_naive(X_query)
        )
        leaves = tree.flat_.apply(X_query)
        assert np.all(tree.flat_.left[leaves] == -1)

    def test_flat_forest_rejects_non_finite_input(self):
        # The self-looping-leaf layout requires finite features; the public
        # FlatForest entry points must reject inf/NaN like check_array does.
        X, y, _ = _random_data(6)
        tree = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        bad_rows = [np.full((1, X.shape[1]), np.inf), np.full((1, X.shape[1]), np.nan)]
        tree.predict(X[:1])  # force lazy forest compilation
        for bad in bad_rows:
            with pytest.raises(ValueError, match="NaN or infinite"):
                tree._forest_.sum_values(bad)
            with pytest.raises(ValueError, match="NaN or infinite"):
                tree._forest_.apply(bad)

    def test_stump_and_pure_leaf(self, traversal_backend):
        X, y, rng = _random_data(4)
        stump = DecisionTreeClassifier(max_depth=1, random_state=0).fit(X, y)
        X_query = rng.normal(size=(50, X.shape[1]))
        np.testing.assert_array_equal(
            stump._predict_values(X_query), stump._predict_values_naive(X_query)
        )
        leaf_only = DecisionTreeClassifier(max_depth=3, random_state=0).fit(
            X, np.zeros(X.shape[0], dtype=np.int64)
        )
        np.testing.assert_array_equal(
            leaf_only._predict_values(X_query), leaf_only._predict_values_naive(X_query)
        )


class TestBestSplitEquivalence:
    def test_classifier_split_identical(self):
        for seed in range(5):
            X, y, _ = _random_data(seed, n=120, d=4)
            tree = DecisionTreeClassifier(random_state=0)
            tree.classes_ = np.unique(y)
            tree.n_features_ = X.shape[1]
            tree._rng = np.random.default_rng(seed)
            fast = tree._best_split(X, y)
            tree._rng = np.random.default_rng(seed)
            naive = tree._best_split_naive(X, y)
            if naive is None:
                assert fast is None
                continue
            assert fast[0] == naive[0]
            assert fast[1] == naive[1]
            np.testing.assert_array_equal(fast[2], naive[2])

    def test_regressor_split_close(self):
        for seed in range(5):
            X, _, rng = _random_data(seed, n=120, d=4)
            y = X[:, 0] ** 2 + 0.1 * rng.normal(size=X.shape[0])
            tree = DecisionTreeRegressor(random_state=0)
            tree.n_features_ = X.shape[1]
            tree._rng = np.random.default_rng(seed)
            fast = tree._best_split(X, y)
            tree._rng = np.random.default_rng(seed)
            naive = tree._best_split_naive(X, y)
            assert (fast is None) == (naive is None)
            if fast is not None:
                assert fast[0] == naive[0]
                np.testing.assert_allclose(fast[1], naive[1], rtol=1e-9)

    def test_regressor_children_impurities_match_variance(self):
        X, _, rng = _random_data(7, n=200, d=1)
        y = rng.normal(size=X.shape[0])
        tree = DecisionTreeRegressor(random_state=0)
        order = np.argsort(X[:, 0], kind="stable")
        y_sorted = y[order]
        n_left = np.arange(1, X.shape[0])
        imp_left, imp_right = tree._children_impurities(y_sorted, n_left)
        for i, k in enumerate(n_left):
            np.testing.assert_allclose(imp_left[i], y_sorted[:k].var(), rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(imp_right[i], y_sorted[k:].var(), rtol=1e-9, atol=1e-12)


class TestEnsembleEquivalence:
    def test_random_forest_matches_per_tree_naive(self, traversal_backend):
        X, y, rng = _random_data(10)
        forest = RandomForestClassifier(n_estimators=7, max_depth=6, random_state=0).fit(X, y)
        X_query = rng.normal(size=(200, X.shape[1]))
        np.testing.assert_allclose(
            forest.predict_proba(X_query),
            forest._predict_proba_naive(X_query),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_gradient_boosting_matches_per_tree_naive(self, traversal_backend):
        X, y, rng = _random_data(11)
        model = GradientBoostingClassifier(n_estimators=12, random_state=0).fit(X, y)
        X_query = rng.normal(size=(200, X.shape[1]))
        np.testing.assert_allclose(
            model.decision_function(X_query),
            model._decision_function_naive(X_query),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_isolation_forest_matches_naive(self, traversal_backend):
        X, _, rng = _random_data(12, n=400, d=5)
        detector = IsolationForest(n_estimators=25, max_samples=64, random_state=0).fit(X)
        X_query = np.vstack([rng.normal(size=(300, 5)), rng.normal(6.0, 1.0, size=(50, 5))])
        np.testing.assert_allclose(
            detector.score_samples(X_query),
            detector._score_samples_naive(X_query),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_isolation_forest_single_feature_and_empty(self, traversal_backend):
        X, _, rng = _random_data(13, n=200, d=1)
        detector = IsolationForest(n_estimators=10, max_samples=32, random_state=0).fit(X)
        X_query = rng.normal(size=(50, 1))
        np.testing.assert_allclose(
            detector.score_samples(X_query),
            detector._score_samples_naive(X_query),
            rtol=1e-9,
            atol=1e-12,
        )
        assert detector.score_samples(np.empty((0, 1))).shape == (0,)


class TestTopKEquivalence:
    def test_matches_full_sort(self):
        rng = np.random.default_rng(20)
        A = rng.normal(size=(83, 5))
        B = rng.normal(size=(37, 5))
        full = pairwise_euclidean(A, B)
        order = np.argsort(full, axis=1)
        for k in (1, 3, B.shape[0] - 1, B.shape[0]):
            idx, dist = pairwise_topk(A, B, k, block_size=16)
            np.testing.assert_array_equal(idx, order[:, :k])
            np.testing.assert_allclose(
                dist, np.take_along_axis(full, order[:, :k], axis=1), rtol=0, atol=0
            )

    def test_exclude_self_matches_masked_full_sort(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(40, 4))
        full = pairwise_euclidean(X, X)
        np.fill_diagonal(full, np.inf)
        order = np.argsort(full, axis=1)
        for k in (1, 5, X.shape[0] - 1):  # includes k == n_train - 1
            idx, dist = pairwise_topk(X, X, k, block_size=7, exclude_self=True)
            np.testing.assert_array_equal(idx, order[:, :k])
            np.testing.assert_allclose(
                dist, np.take_along_axis(full, order[:, :k], axis=1), rtol=0, atol=0
            )

    def test_squared_option(self):
        rng = np.random.default_rng(22)
        A = rng.normal(size=(20, 3))
        B = rng.normal(size=(15, 3))
        _, dist = pairwise_topk(A, B, 4, squared=True)
        _, dist_euclid = pairwise_topk(A, B, 4)
        np.testing.assert_allclose(np.sqrt(dist), dist_euclid, rtol=0, atol=0)

    def test_validation_errors(self):
        A = np.zeros((4, 2))
        with pytest.raises(ValueError):
            pairwise_topk(A, np.zeros((4, 3)), 1)
        with pytest.raises(ValueError):
            pairwise_topk(A, A, 0)
        with pytest.raises(ValueError):
            pairwise_topk(A, A, 5)
        with pytest.raises(ValueError):
            pairwise_topk(A, A, 4, exclude_self=True)
        with pytest.raises(ValueError):
            pairwise_topk(A, np.zeros((5, 2)), 1, exclude_self=True)
        with pytest.raises(ValueError):
            pairwise_topk(A, A, 1, block_size=0)

    def test_memory_bounded_by_block_size(self):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(1500, 8))
        B = rng.normal(size=(3000, 8))
        full_matrix_bytes = A.shape[0] * B.shape[0] * 8
        tracemalloc.start()
        pairwise_topk(A, B, 5, block_size=64)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The blockwise kernel must stay well under the full-matrix footprint.
        assert peak < full_matrix_bytes / 2


class TestNeighborDetectorEquivalence:
    def test_lof_k_equals_n_train_minus_one(self):
        rng = np.random.default_rng(31)
        X_train = rng.normal(size=(12, 3))
        detector = LocalOutlierFactor(n_neighbors=11, max_train_samples=None).fit(X_train)
        X_query = rng.normal(size=(9, 3))
        np.testing.assert_allclose(
            detector.score_samples(X_query),
            detector._score_samples_naive(X_query),
            rtol=0,
            atol=0,
        )

    def test_lof_matches_naive_and_full_matrix_fit(self):
        rng = np.random.default_rng(32)
        X_train = rng.normal(size=(90, 4))
        detector = LocalOutlierFactor(n_neighbors=8, block_size=17, random_state=0).fit(X_train)

        # Reference fit quantities from the full distance matrix.
        distances = pairwise_euclidean(X_train, X_train)
        np.fill_diagonal(distances, np.inf)
        neighbor_idx = np.argsort(distances, axis=1)[:, :8]
        neighbor_dist = np.take_along_axis(distances, neighbor_idx, axis=1)
        k_distance = neighbor_dist[:, -1]
        reach = np.maximum(k_distance[neighbor_idx], neighbor_dist)
        lrd = 1.0 / (reach.mean(axis=1) + 1e-12)
        np.testing.assert_allclose(detector._train_k_distance, k_distance, rtol=1e-12)
        np.testing.assert_allclose(detector._train_lrd, lrd, rtol=1e-12)

        X_query = rng.normal(size=(70, 4))
        np.testing.assert_allclose(
            detector.score_samples(X_query),
            detector._score_samples_naive(X_query),
            rtol=0,
            atol=0,
        )


class _NaiveLloydKMeans(KMeans):
    """Lloyd steps through ``pairwise_topk`` and one ``bincount`` per feature.

    Both hooks ignore the fused kernel's outputs: ``_assign`` returns no
    cluster sums and ``_update_centers`` recounts every cluster itself.
    """

    def _assign(self, X, sq_x, centers, kernel, *, cluster_sums=False):
        idx, dist = pairwise_topk(X, centers, 1, block_size=self.block_size, squared=True)
        return idx[:, 0], dist[:, 0], None

    def _update_centers(self, X, labels, nearest_sq, centers, cluster_sums=None):
        assert cluster_sums is None
        counts = np.bincount(labels, minlength=self.n_clusters)
        sums = np.empty((self.n_clusters, X.shape[1]), dtype=np.float64)
        for j in range(X.shape[1]):
            sums[:, j] = np.bincount(labels, weights=X[:, j], minlength=self.n_clusters)
        new_centers = centers.copy()
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            new_centers[~nonempty] = X[nearest_sq.argmax()]
        return new_centers


def _assert_same_fit(X, **params):
    fast = KMeans(random_state=0, **params).fit(X)
    naive = _NaiveLloydKMeans(random_state=0, **params).fit(X)
    assert fast.cluster_centers_.tobytes() == naive.cluster_centers_.tobytes()
    np.testing.assert_array_equal(fast.labels_, naive.labels_)
    assert fast.inertia_ == naive.inertia_
    assert fast.n_iter_ == naive.n_iter_
    return fast


#: The default single block, and blocks that do not divide the row count.
BLOCK_SIZES = [4096, 37]


@pytest.mark.usefixtures("traversal_backend")
class TestKMeansFitMatchesNaiveLloyd:
    @pytest.mark.parametrize("d", [1, 2, 7, 56])
    def test_random_data(self, d):
        X = np.random.default_rng(d).normal(size=(1500, d)) * 3.0
        _assert_same_fit(X, n_clusters=6, block_size=512)

    @pytest.mark.parametrize("block_size", [1, 7, 64, 499])
    def test_multi_block(self, block_size):
        # Cluster sums accumulate across blocks in row order.
        X = np.random.default_rng(5).normal(size=(500, 9)) * 2.0
        model = _assert_same_fit(X, n_clusters=5, block_size=block_size)
        assert model.n_iter_ > 1

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_duplicate_rows_reseed_empty_clusters(self, block_size):
        # Three distinct points for five clusters: k-means++ repeats centres,
        # ties go to the lowest index and the duplicates come out empty.
        base = np.random.default_rng(1).normal(size=(3, 4))
        X = np.repeat(base, [40, 25, 35], axis=0)
        reseeds = []

        class Recording(KMeans):
            def _update_centers(self, X, labels, nearest_sq, centers, cluster_sums=None):
                reseeds.append(np.bincount(labels, minlength=self.n_clusters).min() == 0)
                return super()._update_centers(X, labels, nearest_sq, centers, cluster_sums)

        Recording(n_clusters=5, random_state=0, block_size=block_size).fit(X)
        assert any(reseeds)
        _assert_same_fit(X, n_clusters=5, block_size=block_size)

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_signed_zero_column(self, block_size):
        X = np.random.default_rng(2).normal(size=(300, 3))
        X[:, 1] = -0.0
        _assert_same_fit(X, n_clusters=4, block_size=block_size)

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("d", [1, 5])
    def test_single_cluster(self, d, block_size):
        X = np.random.default_rng(3).normal(size=(400, d))
        model = _assert_same_fit(X, n_clusters=1, block_size=block_size)
        assert model.n_iter_ <= 2

    def test_predict_matches_naive(self):
        rng = np.random.default_rng(4)
        X, X_query = rng.normal(size=(500, 8)), rng.normal(size=(3000, 8))
        fast = KMeans(n_clusters=7, random_state=0, block_size=700).fit(X)
        naive = _NaiveLloydKMeans(n_clusters=7, random_state=0, block_size=700).fit(X)
        np.testing.assert_array_equal(fast.predict(X_query), naive.predict(X_query))


class TestKMeansOverflowingDistances:
    def test_native_assignment_matches_numpy_bytes(self, monkeypatch):
        """Rows near 1e154 overflow ``sq_x``: the block holds inf and NaN.

        The reference is the NumPy path, not ``pairwise_topk``: only
        ``argmin`` picks the first NaN the way the kernel must.  ``predict``
        is used, not ``fit``: k-means++ cannot draw from NaN weights.
        """
        from repro.ml import native

        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        if not native.available():
            pytest.skip("native kernels unavailable (no C compiler)")
        rng = np.random.default_rng(8)
        d, big = 4, 1e154
        model = KMeans(n_clusters=2, random_state=0, block_size=64).fit(
            rng.normal(size=(200, d))
        )
        # The finite centres come first, so a NaN must win over an earlier
        # minimum: a row ``big * e_j`` has a finite norm and finite distances
        # to them, but ``inf - inf`` to the centre ``big * ones``.
        model.cluster_centers_ = np.vstack(
            [model.cluster_centers_, np.zeros(d), np.full(d, big), np.full(d, -big)]
        )
        X = np.vstack(
            [
                rng.normal(size=(100, d)),
                rng.normal(size=(100, d)) * big,
                np.eye(d) * big,
                np.full((3, d), big),
                np.full((3, d), -big),
            ]
        )
        with np.errstate(over="ignore"):
            sq_x = np.sum(X**2, axis=1)
        results = {}
        for backend in ("native", "numpy"):
            if backend == "numpy":
                monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
            kernel = native.kmeans_assign(X, sq_x, len(model.cluster_centers_))
            assert (kernel is None) == (backend == "numpy")
            with np.errstate(over="ignore", invalid="ignore"):
                labels, nearest_sq, _ = model._assign(X, sq_x, model.cluster_centers_, kernel)
                predicted = model.predict(X)
            np.testing.assert_array_equal(predicted, labels)
            results[backend] = (labels.tobytes(), nearest_sq.tobytes())
        assert results["native"] == results["numpy"]
        assert np.isinf(nearest_sq).any()
        nan_rows = np.isnan(nearest_sq)
        assert nan_rows.any() and (labels[nan_rows] > 0).any()


class TestKMeansAssignChecks:
    """The kernel takes raw addresses, so its binding checks every array."""

    def test_bad_arrays_are_rejected(self, monkeypatch):
        from repro.ml import native

        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        if not native.available():
            pytest.skip("native kernels unavailable (no C compiler)")
        rng = np.random.default_rng(9)
        X, centers = rng.normal(size=(10, 3)), rng.normal(size=(2, 3))
        sq_x, sq_c = np.sum(X**2, axis=1), np.sum(centers**2, axis=1)
        with pytest.raises(TypeError):
            native.kmeans_assign(X.astype(np.float32), sq_x, 2)
        with pytest.raises(TypeError):
            native.kmeans_assign(np.asfortranarray(X), sq_x, 2)
        with pytest.raises(ValueError):
            native.kmeans_assign(X, sq_x[:-1], 2)
        kernel = native.kmeans_assign(X, sq_x, 2)
        G = X[:4] @ centers.T
        with pytest.raises(TypeError):
            kernel(0, G.astype(np.float32), sq_c, False)
        with pytest.raises(TypeError):
            kernel(0, np.asfortranarray(G), sq_c, False)
        with pytest.raises(ValueError):
            kernel(0, G[:, :1], sq_c, False)
        with pytest.raises(ValueError):
            kernel(0, G, sq_c[:1], False)
        for start in (-1, 7):
            with pytest.raises(ValueError):
                kernel(start, G, sq_c, True)
        kernel(6, G, sq_c, False)  # the last four rows


class TestForestKernelChecks:
    """The forest kernels take raw addresses, so their binding checks every array."""

    @staticmethod
    def _fitted():
        X = np.random.default_rng(10).normal(size=(300, 8))
        return X, IsolationForest(n_estimators=20, max_samples=64, random_state=0).fit(X)

    @staticmethod
    def _kernel(forest, **replace):
        from repro.ml import native

        arrays = {
            "feature": forest.feature, "threshold": forest.threshold, "child": forest.child,
            "value": forest._value_flat, "roots": forest.roots, "depths": forest.depths,
        }
        return native.ForestKernel(**{**arrays, **replace}, strict=forest.strict)

    def test_bad_arrays_are_rejected(self, monkeypatch):
        from repro.ml import native

        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        if not native.available():
            pytest.skip("native kernels unavailable (no C compiler)")
        X, model = self._fitted()
        forest = model.forest_
        with pytest.raises(TypeError):
            self._kernel(forest, feature=forest.feature.astype(np.int64))
        with pytest.raises(TypeError):
            self._kernel(forest, threshold=forest.threshold[::-1])
        with pytest.raises(ValueError):
            self._kernel(forest, depths=forest.depths[:-1])
        kernel = self._kernel(forest)
        assert kernel.n_features == int(forest.feature.max()) + 1 > 1
        for call in (native.forest_sum, native.forest_apply):
            with pytest.raises(TypeError):
                call(X.astype(np.float32), kernel)
            with pytest.raises(TypeError):
                call(np.asfortranarray(X), kernel)
            with pytest.raises(ValueError, match="splits on feature"):
                call(np.ascontiguousarray(X[:, : kernel.n_features - 1]), kernel)
            with pytest.raises(ValueError):
                call(X[0], kernel)
        np.testing.assert_array_equal(native.forest_sum(X, kernel), forest.sum_values(X)[:, 0])
        with pytest.raises(ValueError):
            native.forest_sum(X, self._kernel(forest, value=None))

    def test_narrow_X_raises_on_both_backends(self, traversal_backend):
        """Fit on 8 features, then walk 5 columns: the native walk read past each row."""
        X, model = self._fitted()
        narrow = np.ascontiguousarray(X[:, :5])
        for walk in (model.forest_.sum_values, model.forest_.apply):
            with pytest.raises(ValueError, match="splits on feature 7"):
                walk(narrow)

    def test_rebinding_an_array_rebinds_the_kernel(self, traversal_backend):
        X, model = self._fitted()
        forest = model.forest_
        before = forest.sum_values(X)
        kernel = forest._kernel
        assert kernel is not None
        # Every row now goes left at every split: other leaves, other sums.
        forest.threshold = np.where(np.isinf(forest.threshold), np.inf, -np.inf)
        expected = FlatForest(
            forest.feature, forest.threshold, forest.child, forest.value,
            forest.roots, forest.depths, forest.strict,
        ).sum_values(X)
        after = forest.sum_values(X)
        assert forest._kernel is not kernel
        np.testing.assert_array_equal(after, expected)
        assert not np.array_equal(after, before)

    def test_a_deep_copy_binds_its_own_arrays(self, traversal_backend):
        import copy
        import gc

        X, model = self._fitted()
        expected = model.score_samples(X).tobytes()
        clone = copy.deepcopy(model)
        original = model.forest_._kernel
        assert clone.forest_._kernel.arrays[0] is clone.forest_.feature
        assert clone.forest_._kernel._nodes != original._nodes
        del model, original
        gc.collect()
        assert clone.score_samples(X).tobytes() == expected

    def test_snapshot_and_registry_loads_score_bit_identically(self, traversal_backend, tmp_path):
        """Loaded models bind on first use; a snapshot from before the binding
        (no ``_kernel`` or ``_path_norm`` attribute) still scores."""
        import json

        from repro.serve.registry import ModelRegistry
        from repro.serve.snapshot import load_snapshot, save_snapshot

        X, model = self._fitted()
        expected = model.score_samples(X).tobytes()
        path = save_snapshot(model, tmp_path / "snapshot")
        loaded = load_snapshot(path)
        assert loaded.forest_._kernel is None and loaded._path_norm is None
        assert loaded.score_samples(X).tobytes() == expected
        assert loaded.forest_._kernel is not None
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(model, "ids")
        assert registry.load("ids").score_samples(X).tobytes() == expected
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for obj in manifest["objects"]:
            for name in ("_kernel", "_path_norm"):
                obj.get("attrs", {}).pop(name, None)
        manifest_path.write_text(json.dumps(manifest))
        older = load_snapshot(path)
        assert not {"_kernel", "_path_norm"} & (set(vars(older)) | set(vars(older.forest_)))
        assert older.score_samples(X).tobytes() == expected


@pytest.mark.usefixtures("traversal_backend")
class TestKMeansEquivalence:
    def test_assignment_matches_argmin(self):
        rng = np.random.default_rng(50)
        X = rng.normal(size=(200, 4))
        model = KMeans(n_clusters=5, n_init=1, block_size=33, random_state=0).fit(X)
        expected = pairwise_squared_euclidean(X, model.cluster_centers_).argmin(axis=1)
        np.testing.assert_array_equal(model.predict(X), expected)

    def test_update_centers_matches_naive_loop(self):
        rng = np.random.default_rng(51)
        X = rng.normal(size=(150, 3))
        model = KMeans(n_clusters=6, random_state=0)
        centers = X[rng.choice(150, 6, replace=False)]
        distances = pairwise_squared_euclidean(X, centers)
        labels = distances.argmin(axis=1)
        nearest_sq = distances.min(axis=1)

        new_centers = model._update_centers(X, labels, nearest_sq, centers)

        reference = centers.copy()
        for k in range(6):
            members = X[labels == k]
            if members.shape[0] > 0:
                reference[k] = members.mean(axis=0)
            else:
                reference[k] = X[nearest_sq.argmax()]
        np.testing.assert_allclose(new_centers, reference, rtol=1e-9, atol=1e-12)

    def test_empty_cluster_reseeded_like_naive(self):
        rng = np.random.default_rng(52)
        X = rng.normal(size=(50, 2))
        model = KMeans(n_clusters=3, random_state=0)
        centers = np.vstack([X[0], X[1], X[:10].mean(axis=0) + 100.0])  # last is empty
        distances = pairwise_squared_euclidean(X, centers)
        labels = distances.argmin(axis=1)
        nearest_sq = distances.min(axis=1)
        new_centers = model._update_centers(X, labels, nearest_sq, centers)
        np.testing.assert_allclose(new_centers[2], X[nearest_sq.argmax()])

    def test_labels_consistent_with_final_centers(self):
        rng = np.random.default_rng(53)
        X = np.vstack([rng.normal(size=(80, 3)), rng.normal(5.0, 1.0, size=(80, 3))])
        model = KMeans(n_clusters=2, n_init=2, random_state=0).fit(X)
        expected = pairwise_squared_euclidean(X, model.cluster_centers_).argmin(axis=1)
        np.testing.assert_array_equal(model.labels_, expected)


@dataclass
class _Node:
    """Isolation-tree node: either an internal split or an external leaf."""

    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    size: int = 0  # only meaningful for leaves

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _build_tree(
    X: np.ndarray, depth: int, max_depth: int, rng: np.random.Generator
) -> _Node:
    n = X.shape[0]
    if depth >= max_depth or n <= 1:
        return _Node(size=n)
    feature = int(rng.integers(X.shape[1]))
    lo, hi = X[:, feature].min(), X[:, feature].max()
    if lo == hi:
        return _Node(size=n)
    threshold = float(rng.uniform(lo, hi))
    left_mask = X[:, feature] < threshold
    return _Node(
        feature=feature,
        threshold=threshold,
        left=_build_tree(X[left_mask], depth + 1, max_depth, rng),
        right=_build_tree(X[~left_mask], depth + 1, max_depth, rng),
    )


def _leaf_path_length(node: _Node, depth: int) -> float:
    if not node.is_leaf:
        return 0.0
    return depth + (average_path_length(node.size)[0] if node.size > 1 else 0.0)


class _LinkedIsolationForest(IsolationForest):
    """Linked ``_Node`` trees, then ``flatten_tree``, then ``from_flat_trees``."""

    def fit(self, X):
        X = check_array(X, name="X")
        self.n_features_ = X.shape[1]
        rng = check_random_state(self.random_state)
        psi = min(self.max_samples, X.shape[0])
        max_depth = int(np.ceil(np.log2(max(psi, 2))))
        trees = []
        for _ in range(self.n_estimators):
            idx = rng.choice(X.shape[0], psi, replace=False)
            trees.append(_build_tree(X[idx], 0, max_depth, rng))
        self.forest_ = FlatForest.from_flat_trees(
            [flatten_tree(tree, _leaf_path_length, strict=True) for tree in trees]
        )
        self.subsample_size_ = psi
        self._set_default_threshold(self.score_samples(X))
        return self


def _leaf_values(forest):
    leaves = forest.child == np.arange(forest.child.shape[0])
    return np.sort(forest.value[leaves, 0])


def _assert_same_forest(fast, linked, X):
    assert fast.score_samples(X).tobytes() == linked.score_samples(X).tobytes()
    assert fast.threshold_ == linked.threshold_
    assert fast.subsample_size_ == linked.subsample_size_
    a, b = fast.forest_, linked.forest_
    assert a.n_trees == b.n_trees
    assert a.feature.shape == b.feature.shape
    np.testing.assert_array_equal(a.depths, b.depths)
    np.testing.assert_array_equal(np.sort(a.threshold), np.sort(b.threshold))
    np.testing.assert_array_equal(_leaf_values(a), _leaf_values(b))


def _forest_arrays(forest):
    return (forest.feature, forest.threshold, forest.child, forest.value,
            forest.roots, forest.depths)


@pytest.mark.usefixtures("traversal_backend")
class TestIsolationForestFitMatchesLinkedTrees:
    """``fit`` grows the flat forest directly, bit for bit as the linked path.

    Every test runs with the native tree grower and with the NumPy fallback.
    """

    @pytest.mark.parametrize(
        "name,X,params",
        [
            ("d1", np.random.default_rng(1).normal(size=(500, 1)), {}),
            ("d5", np.random.default_rng(5).normal(size=(700, 5)), {}),
            ("d56", np.random.default_rng(56).normal(size=(1000, 56)), {}),
            (
                "constant-column",
                np.c_[np.random.default_rng(2).normal(size=(300, 3)), np.full(300, 2.0)],
                {},
            ),
            ("all-constant", np.full((200, 4), 1.5), {}),
            ("psi-capped", np.random.default_rng(3).normal(size=(50, 3)), {}),
            (
                "max-samples-2",
                np.random.default_rng(4).normal(size=(300, 5)),
                {"max_samples": 2},
            ),
            (
                "ties",
                np.random.default_rng(6).integers(0, 3, size=(600, 6)).astype(float),
                {},
            ),
        ],
    )
    def test_int_random_state(self, name, X, params):
        kwargs = {"n_estimators": 20, "random_state": 7, **params}
        fast = IsolationForest(**kwargs).fit(X)
        linked = _LinkedIsolationForest(**kwargs).fit(X)
        _assert_same_forest(fast, linked, X)

    def test_shared_generator_leaves_the_same_state(self):
        X = np.random.default_rng(8).normal(size=(400, 5))
        fast_rng, linked_rng = np.random.default_rng(11), np.random.default_rng(11)
        fast = IsolationForest(n_estimators=15, random_state=fast_rng).fit(X)
        linked = _LinkedIsolationForest(n_estimators=15, random_state=linked_rng).fit(X)
        _assert_same_forest(fast, linked, X)
        assert fast_rng.bit_generator.state == linked_rng.bit_generator.state
        assert fast_rng.random(4).tobytes() == linked_rng.random(4).tobytes()

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM]
    )
    def test_any_bit_generator(self, bit_generator):
        X = np.random.default_rng(13).normal(size=(500, 7))
        fast_rng = np.random.Generator(bit_generator(21))
        linked_rng = np.random.Generator(bit_generator(21))
        fast = IsolationForest(n_estimators=12, random_state=fast_rng).fit(X)
        linked = _LinkedIsolationForest(n_estimators=12, random_state=linked_rng).fit(X)
        _assert_same_forest(fast, linked, X)
        assert str(fast_rng.bit_generator.state) == str(linked_rng.bit_generator.state)
        assert fast_rng.random(4).tobytes() == linked_rng.random(4).tobytes()

    @pytest.mark.parametrize(
        "X,error",
        [
            (np.zeros((30, 0)), ValueError),
            (np.c_[np.where(np.arange(40) % 2, 1e308, -1e308), np.zeros(40)], OverflowError),
        ],
        ids=["zero-columns", "range-overflow"],
    )
    def test_generator_errors_match_numpy(self, X, error):
        raised = []
        for cls in (IsolationForest, _LinkedIsolationForest):
            rng = np.random.default_rng(17)
            with pytest.raises(error) as info:
                cls(n_estimators=4, random_state=rng).fit(X)
            raised.append((type(info.value), str(info.value), str(rng.bit_generator.state)))
        assert raised[0] == raised[1]

    def test_forest_arrays_own_exactly_their_nodes(self):
        X = np.random.default_rng(14).normal(size=(600, 9))
        forest = IsolationForest(n_estimators=10, max_samples=200).fit(X).forest_
        n_nodes = int(forest.child.shape[0])
        for array, length in zip(_forest_arrays(forest), [n_nodes] * 4 + [10, 10]):
            assert array.base is None
            assert array.shape[0] == length

    def test_deep_isolation_forest_end_to_end(self, monkeypatch):
        X = np.random.default_rng(9).normal(size=(300, 6))
        fast_rng, linked_rng = np.random.default_rng(12), np.random.default_rng(12)
        make = lambda rng: DeepIsolationForest(
            n_representations=2, n_estimators_per_representation=8, random_state=rng
        )
        fast = make(fast_rng).fit(X)
        monkeypatch.setattr("repro.novelty.dif.IsolationForest", _LinkedIsolationForest)
        linked = make(linked_rng).fit(X)
        assert all(type(f) is _LinkedIsolationForest for f in linked.forests_)
        assert fast.score_samples(X).tobytes() == linked.score_samples(X).tobytes()
        assert fast.threshold_ == linked.threshold_
        assert fast_rng.bit_generator.state == linked_rng.bit_generator.state

    def test_leaf_length_table_matches_scalar_calls(self):
        psi = 4096
        table = average_path_length(np.arange(psi + 1))
        scalar = np.array([average_path_length(n)[0] for n in range(psi + 1)])
        assert table.tobytes() == scalar.tobytes()
        assert table[0] == table[1] == 0.0


@pytest.mark.parametrize(
    "X,params",
    [
        (np.random.default_rng(31).normal(size=(4096, 56)), {}),
        (np.random.default_rng(32).normal(size=(900, 6)) * [1e-9, 1e-3, 1, 1e3, 1e9, 1e15], {}),
        # Splits of two near-equal large values can round onto the minimum
        # and leave an empty left child.
        (1e16 + 2.0 * np.random.default_rng(33).integers(0, 3, size=(500, 3)), {}),
        (np.random.default_rng(34).integers(0, 4, size=(700, 5)).astype(float), {"max_samples": 200}),
    ],
    ids=["perfbench-window", "scaled", "large-few-valued", "few-valued-psi-200"],
)
def test_isolation_forest_fit_is_bit_identical_across_backends(X, params, monkeypatch):
    from repro.ml import native

    if not native.available():
        pytest.skip("native kernels unavailable (no C compiler)")
    fits = []
    for disable in ("", "1"):
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", disable)
        rng = np.random.default_rng(7)
        model = IsolationForest(n_estimators=25, random_state=rng, **params).fit(X)
        fits.append(([a.tobytes() for a in _forest_arrays(model.forest_)], model.threshold_,
                     rng.random(3).tobytes()))
    assert fits[0] == fits[1]
