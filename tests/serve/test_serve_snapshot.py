"""Snapshot persistence: every model family round-trips bit for bit."""

from __future__ import annotations

import hashlib
import importlib
import json
import pkgutil
import zipfile

import numpy as np
import pytest

import repro
from repro.ml.flat_tree import FlatForest
from repro.nn.layers import LeakyReLU, Linear, ReLU, Sigmoid, Tanh
from repro.novelty import (
    DeepIsolationForest,
    IsolationForest,
    LocalOutlierFactor,
    MahalanobisDetector,
    NoveltyDetector,
    OneClassSVM,
    PCAReconstructionDetector,
)
from repro.serve.lifecycle import clone_model
from repro.serve.registry import ModelRegistry
from repro.serve.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    _transient_attrs,
    load_snapshot,
    read_manifest,
    save_snapshot,
)
from repro.supervised import (
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)

# Small but representative configurations of every detector family.
DETECTOR_FACTORIES = {
    "pca": lambda: PCAReconstructionDetector(n_components=0.95),
    "lof": lambda: LocalOutlierFactor(n_neighbors=8, random_state=0),
    "ocsvm": lambda: OneClassSVM(n_epochs=5, random_state=0),
    "iforest": lambda: IsolationForest(n_estimators=20, max_samples=64, random_state=0),
    "dif": lambda: DeepIsolationForest(
        n_representations=2, n_estimators_per_representation=5, random_state=0
    ),
    "mahalanobis": lambda: MahalanobisDetector(),
}


def test_every_served_detector_has_a_round_trip():
    """A detector ``repro serve --detector`` offers must round-trip here too."""
    from repro.serve.cli import DETECTOR_FACTORIES as SERVED

    assert set(SERVED) <= set(DETECTOR_FACTORIES)


@pytest.fixture(params=["native", "numpy"])
def traversal_backend(request, monkeypatch):
    """Round-trips must be exact on both flat-forest traversal backends."""
    if request.param == "numpy":
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    else:
        from repro.ml import native

        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        if not native.available():
            pytest.skip("native kernels unavailable (no C compiler)")
    return request.param


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    X_train = rng.normal(size=(300, 6))
    X_query = np.vstack([rng.normal(size=(80, 6)), rng.normal(5.0, 1.0, size=(40, 6))])
    y_train = (X_train[:, 0] > 0).astype(np.int64)
    return X_train, y_train, X_query


class TestDetectorRoundTrips:
    @pytest.mark.parametrize("name", sorted(DETECTOR_FACTORIES))
    def test_scores_bit_identical(self, name, data, tmp_path, traversal_backend):
        X_train, _, X_query = data
        detector = DETECTOR_FACTORIES[name]().fit(X_train)
        path = detector.save(tmp_path / name)
        loaded = load_snapshot(path)
        assert type(loaded) is type(detector)
        np.testing.assert_array_equal(
            loaded.score_samples(X_query), detector.score_samples(X_query)
        )
        assert loaded.threshold_ == detector.threshold_
        np.testing.assert_array_equal(
            loaded.predict(X_query), detector.predict(X_query)
        )

    def test_iforest_snapshot_with_linked_trees_entry(self, data, tmp_path):
        # Snapshots written while IsolationForest still kept linked trees
        # carry a transient ``"trees_": null`` attribute; they still load.
        X_train, _, X_query = data
        detector = DETECTOR_FACTORIES["iforest"]().fit(X_train)
        path = detector.save(tmp_path / "iforest")
        manifest = json.loads((path / "manifest.json").read_text())
        (entry,) = [
            obj for obj in manifest["objects"]
            if obj.get("cls") == "repro.novelty.iforest:IsolationForest"
        ]
        assert "trees_" not in entry["attrs"]
        entry["attrs"]["trees_"] = None
        (path / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_snapshot(path)
        assert loaded.score_samples(X_query).tobytes() == (
            detector.score_samples(X_query).tobytes()
        )
        assert loaded.threshold_ == detector.threshold_

    def test_typed_load_classmethod(self, data, tmp_path):
        X_train, _, X_query = data
        detector = MahalanobisDetector().fit(X_train)
        detector.save(tmp_path / "m")
        loaded = MahalanobisDetector.load(tmp_path / "m")
        assert isinstance(loaded, MahalanobisDetector)
        # Loading through the base class works too (subclass allowed).
        base_loaded = NoveltyDetector.load(tmp_path / "m")
        np.testing.assert_array_equal(
            base_loaded.score_samples(X_query), detector.score_samples(X_query)
        )

    def test_load_wrong_class_raises(self, data, tmp_path):
        X_train, _, _ = data
        MahalanobisDetector().fit(X_train).save(tmp_path / "m")
        with pytest.raises(TypeError, match="expected LocalOutlierFactor"):
            LocalOutlierFactor.load(tmp_path / "m")


class TestEnsembleRoundTrips:
    def test_random_forest(self, data, tmp_path, traversal_backend):
        X_train, y_train, X_query = data
        model = RandomForestClassifier(n_estimators=7, max_depth=6, random_state=0)
        model.fit(X_train, y_train)
        model.save(tmp_path / "rf")
        loaded = RandomForestClassifier.load(tmp_path / "rf")
        np.testing.assert_array_equal(
            loaded.predict_proba(X_query), model.predict_proba(X_query)
        )
        np.testing.assert_array_equal(loaded.predict(X_query), model.predict(X_query))
        np.testing.assert_array_equal(loaded.classes_, model.classes_)

    def test_gradient_boosting(self, data, tmp_path, traversal_backend):
        X_train, y_train, X_query = data
        model = GradientBoostingClassifier(n_estimators=10, random_state=0)
        model.fit(X_train, y_train)
        model.save(tmp_path / "gb")
        loaded = GradientBoostingClassifier.load(tmp_path / "gb")
        np.testing.assert_array_equal(
            loaded.decision_function(X_query), model.decision_function(X_query)
        )

    def test_decision_tree(self, data, tmp_path, traversal_backend):
        X_train, y_train, X_query = data
        model = DecisionTreeClassifier(max_depth=6, random_state=0).fit(X_train, y_train)
        model.save(tmp_path / "dt")
        loaded = DecisionTreeClassifier.load(tmp_path / "dt")
        np.testing.assert_array_equal(
            loaded.predict_proba(X_query), model.predict_proba(X_query)
        )

    def test_loaded_model_rejects_wrong_feature_count(self, data, tmp_path):
        X_train, _, _ = data
        detector = IsolationForest(n_estimators=10, random_state=0).fit(X_train)
        detector.save(tmp_path / "m")
        loaded = IsolationForest.load(tmp_path / "m")
        with pytest.raises(ValueError, match="features"):
            loaded.score_samples(np.zeros((4, X_train.shape[1] + 1)))


class TestContinualCheckpoint:
    def test_cndids_round_trip_and_continued_training(self, tiny_scenario, tmp_path):
        from repro.core import CNDIDS

        method = CNDIDS(input_dim=tiny_scenario.n_features, epochs=2, random_state=0)
        method.setup(tiny_scenario.clean_normal)
        experiences = list(tiny_scenario)
        method.fit_experience(experiences[0].X_train)
        X_query = experiences[0].X_test

        method.save(tmp_path / "cnd")
        loaded = CNDIDS.load(tmp_path / "cnd")
        np.testing.assert_array_equal(
            loaded.score_samples(X_query), method.score_samples(X_query)
        )
        assert loaded.experience_count == method.experience_count
        # A checkpoint is a resumable training state, not just a scorer.
        loaded.fit_experience(experiences[1].X_train)
        assert loaded.experience_count == method.experience_count + 1


class TestManifestFormat:
    def test_manifest_contents(self, data, tmp_path):
        X_train, _, _ = data
        detector = MahalanobisDetector().fit(X_train)
        path = detector.save(tmp_path / "m", metadata={"dataset": "unit-test"})
        manifest = read_manifest(path)
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert manifest["class"] == "repro.novelty.mahalanobis:MahalanobisDetector"
        assert manifest["metadata"] == {"dataset": "unit-test"}
        assert (path / manifest["arrays_file"]).is_file()
        # No pickle anywhere: the manifest is plain JSON and arrays load with
        # allow_pickle=False (load_snapshot would raise otherwise).
        json.loads((path / "manifest.json").read_text())

    def test_unsupported_format_version_rejected(self, data, tmp_path):
        X_train, _, _ = data
        path = MahalanobisDetector().fit(X_train).save(tmp_path / "m")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format version"):
            load_snapshot(path)

    def test_disallowed_class_rejected(self, data, tmp_path):
        X_train, _, _ = data
        path = MahalanobisDetector().fit(X_train).save(tmp_path / "m")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["objects"][0]["cls"] = "os:system"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="disallowed"):
            load_snapshot(path)

    @pytest.mark.parametrize(
        "cls",
        [
            "repro.novelty.knn:KNNDetector",  # a deleted module
            "repro.nowhere.deeper:Detector",  # a missing parent package
            "repro.novelty.mahalanobis:NoSuchDetector",  # a missing class
        ],
    )
    def test_unknown_class_rejected(self, data, tmp_path, cls):
        X_train, _, _ = data
        path = MahalanobisDetector().fit(X_train).save(tmp_path / "m")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["objects"][0]["cls"] = cls
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="unknown class"):
            load_snapshot(path)

    @pytest.mark.parametrize(
        "body, error",
        [
            ("import repro_missing_dependency\n", ModuleNotFoundError),
            ("from numpy import no_such_name\n", ImportError),
        ],
    )
    def test_import_error_inside_an_existing_module_propagates(
        self, data, tmp_path, monkeypatch, body, error
    ):
        import repro.novelty

        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "broken_fixture.py").write_text(body)
        monkeypatch.setattr(
            repro.novelty, "__path__", [*repro.novelty.__path__, str(tmp_path / "pkg")]
        )
        X_train, _, _ = data
        path = MahalanobisDetector().fit(X_train).save(tmp_path / "m")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["objects"][0]["cls"] = "repro.novelty.broken_fixture:Detector"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(error) as excinfo:
            load_snapshot(path)
        assert not isinstance(excinfo.value, SnapshotError)

    def test_object_array_refused(self, data, tmp_path):
        """An object array loads only through pickle, so its snapshot is
        refused, by path, even when the manifest vouches for its bytes."""
        X_train, _, _ = data
        path = MahalanobisDetector().fit(X_train).save(tmp_path / "m")
        manifest = json.loads((path / "manifest.json").read_text())
        arrays_path = path / manifest["arrays_file"]
        with np.load(arrays_path) as stored:
            arrays = {key: stored[key].astype(object) for key in stored.files}
        with open(arrays_path, "wb") as handle:
            np.savez(handle, **arrays)
        digest = hashlib.sha256(arrays_path.read_bytes()).hexdigest()
        manifest["artifacts"][manifest["arrays_file"]]["sha256"] = digest
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="Object arrays cannot be loaded") as excinfo:
            load_snapshot(path)
        assert str(path) in str(excinfo.value)

    def test_overwrite_protection(self, data, tmp_path):
        X_train, _, _ = data
        detector = MahalanobisDetector().fit(X_train)
        detector.save(tmp_path / "m")
        with pytest.raises(FileExistsError):
            detector.save(tmp_path / "m")
        save_snapshot(detector, tmp_path / "m", overwrite=True)

    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_snapshot(tmp_path / "nowhere")

    def test_shared_rng_stays_shared(self, data, tmp_path):
        # CND-IDS style sharing: one Generator threaded through sub-objects
        # must come back as one object, or post-load training would diverge.
        from repro.core import CNDIDS

        X_train, _, _ = data
        method = CNDIDS(input_dim=X_train.shape[1], epochs=1, random_state=0)
        method.setup(X_train)
        save_snapshot(method, tmp_path / "m")
        loaded = load_snapshot(tmp_path / "m")
        assert loaded._rng is loaded.cfe._rng


class TestArrayStore:
    """``arrays.npz`` is written stored, hashed from the bytes written."""

    @staticmethod
    def _forest(data):
        return DETECTOR_FACTORIES["iforest"]().fit(data[0])

    def test_members_are_stored_uncompressed(self, data, tmp_path):
        path = save_snapshot(self._forest(data), tmp_path / "m")
        with zipfile.ZipFile(path / "arrays.npz") as store:
            members = store.infolist()
        assert members
        assert {member.compress_type for member in members} == {zipfile.ZIP_STORED}

    def test_manifest_hash_is_the_file_on_disk(self, data, tmp_path):
        path = save_snapshot(self._forest(data), tmp_path / "m")
        digest = hashlib.sha256((path / "arrays.npz").read_bytes()).hexdigest()
        assert read_manifest(path)["artifacts"]["arrays.npz"]["sha256"] == digest

    def test_unserializable_metadata_writes_nothing(self, data, tmp_path):
        with pytest.raises(SnapshotError, match="not JSON-serializable"):
            save_snapshot(self._forest(data), tmp_path / "m", metadata={"x": object()})
        assert not (tmp_path / "m" / "arrays.npz").exists()

    def test_deflated_store_loads_and_recovers(self, data, tmp_path):
        """Snapshots written before the store went uncompressed stay valid."""
        _, _, X_query = data
        detector = self._forest(data)
        registry = ModelRegistry(tmp_path / "registry")
        path = registry.publish(detector, "m").path
        arrays_path = path / "arrays.npz"
        with np.load(arrays_path) as stored:
            arrays = {key: stored[key] for key in stored.files}
        with open(arrays_path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with zipfile.ZipFile(arrays_path) as store:
            assert {m.compress_type for m in store.infolist()} == {zipfile.ZIP_DEFLATED}
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["artifacts"]["arrays.npz"]["sha256"] = hashlib.sha256(
            arrays_path.read_bytes()
        ).hexdigest()
        (path / "manifest.json").write_text(json.dumps(manifest))
        assert ModelRegistry(tmp_path / "registry", recover=False).recover() == []
        loaded = registry.load("m")
        assert loaded.score_samples(X_query).tobytes() == (
            detector.score_samples(X_query).tobytes()
        )


class TestForestSnapshotLayout:
    """A forest persists ``value`` once; the sum kernel's flat copy is derived."""

    @staticmethod
    def _forest_arrays(path):
        manifest = read_manifest(path)
        (entry,) = [
            obj for obj in manifest["objects"]
            if obj.get("cls") == "repro.ml.flat_tree:FlatForest"
        ]
        return {
            name for name, spec in entry["attrs"].items()
            if isinstance(spec, dict) and spec.get("t") == "nd"
        }

    def test_forest_stores_six_arrays(self, data, tmp_path):
        path = save_snapshot(DETECTOR_FACTORIES["iforest"]().fit(data[0]), tmp_path / "m")
        assert self._forest_arrays(path) == {
            "feature", "threshold", "child", "value", "roots", "depths"
        }
        with np.load(path / "arrays.npz") as stored:
            assert len(stored.files) == 6

    def test_loaded_and_cloned_forests_score_bit_identically(
        self, data, tmp_path, traversal_backend, monkeypatch
    ):
        X_train, _, X_query = data
        detector = DETECTOR_FACTORIES["iforest"]().fit(X_train)
        expected = detector.score_samples(X_query).tobytes()
        restored = [load_snapshot(save_snapshot(detector, tmp_path / "m")), clone_model(detector)]
        if traversal_backend == "native":
            # The native sum kernel, never the apply-then-gather fallback.
            def refuse(*args, **kwargs):
                raise AssertionError("scalar-payload forest fell back to apply()")

            monkeypatch.setattr(FlatForest, "apply", refuse)
        for model in restored:
            assert model.forest_._value_flat is None
            assert model.score_samples(X_query).tobytes() == expected
            assert model.forest_._value_flat is not None

    def test_old_layout_with_value_flat_still_loads(
        self, data, tmp_path, traversal_backend, monkeypatch
    ):
        X_train, _, X_query = data
        detector = DETECTOR_FACTORIES["iforest"]().fit(X_train)
        expected = detector.score_samples(X_query).tobytes()
        with monkeypatch.context() as old_layout:
            old_layout.setattr(FlatForest, "_snapshot_transient_", ("_kernel",))
            path = save_snapshot(detector, tmp_path / "m")
        assert "_value_flat" in self._forest_arrays(path)
        loaded = load_snapshot(path)
        assert loaded.forest_._value_flat is not None
        assert loaded.score_samples(X_query).tobytes() == expected


def _declaring_classes() -> set[type]:
    """Every ``repro`` class whose own body declares ``_snapshot_transient_``."""
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and "_snapshot_transient_" in vars(value)
            ):
                found.add(value)
    return found


def _fit_layer(layer, X):
    """A training step's forward and backward, then one more forward."""
    layer.train()
    layer.backward(np.ones_like(layer.forward(X)))
    layer.forward(X)
    return layer


def _score_layer(layer, X):
    return layer.eval().forward(X)


def _scored(model, X):
    model.predict(X)
    return model


#: case id -> (fit-and-score, score) for one class per transient declaration
TRANSIENT_CASES = {
    "linear": (lambda X, y: _fit_layer(Linear(X.shape[1], 4, random_state=0), X), _score_layer),
    "relu": (lambda X, y: _fit_layer(ReLU(), X), _score_layer),
    "leaky_relu": (lambda X, y: _fit_layer(LeakyReLU(0.1), X), _score_layer),
    "tanh": (lambda X, y: _fit_layer(Tanh(), X), _score_layer),
    "sigmoid": (lambda X, y: _fit_layer(Sigmoid(), X), _score_layer),
    "decision_tree": (
        lambda X, y: _scored(DecisionTreeClassifier(max_depth=5, random_state=0).fit(X, y), X),
        lambda model, X: model.predict_proba(X),
    ),
    "random_forest": (
        lambda X, y: _scored(
            RandomForestClassifier(n_estimators=5, max_depth=5, random_state=0).fit(X, y), X
        ),
        lambda model, X: model.predict_proba(X),
    ),
    "gradient_boosting": (
        lambda X, y: _scored(GradientBoostingClassifier(n_estimators=5, random_state=0).fit(X, y), X),
        lambda model, X: model.decision_function(X),
    ),
    "isolation_forest": (
        lambda X, y: _scored(IsolationForest(n_estimators=10, random_state=0).fit(X), X),
        lambda model, X: model.score_samples(X),
    ),
    "flat_forest": (
        lambda X, y: IsolationForest(n_estimators=10, random_state=0).fit(X).forest_,
        lambda forest, X: forest.sum_values(X),
    ),
}


class TestSnapshotTransients:
    """Declared transients are real attributes, and restoring rebuilds them.

    A snapshot skips the names a class declares in ``_snapshot_transient_``
    and restores them as ``None``.  A stale name (one the class never sets)
    silently stops excluding anything, and a transient that a scoring
    method reads without rebuilding breaks the restored model.
    """

    @staticmethod
    def _fitted(case, data):
        X_train, y_train, _ = data
        return TRANSIENT_CASES[case][0](X_train, y_train)

    def test_every_declaring_class_has_a_case(self, data):
        covered = {type(self._fitted(case, data)) for case in TRANSIENT_CASES}
        missing = {
            cls.__qualname__
            for cls in _declaring_classes()
            if not any(issubclass(case, cls) for case in covered)
        }
        assert not missing, f"add a TRANSIENT_CASES entry for {sorted(missing)}"

    @pytest.mark.parametrize("case", sorted(TRANSIENT_CASES))
    def test_declared_names_exist_after_fit_and_score(self, case, data):
        model = self._fitted(case, data)
        declared = _transient_attrs(type(model))
        assert declared
        assert not sorted(declared - set(vars(model))), "stale _snapshot_transient_ name"

    @pytest.mark.parametrize("case", sorted(TRANSIENT_CASES))
    def test_restored_model_scores_bit_identically(self, case, data, tmp_path):
        _, _, X_query = data
        model, score = self._fitted(case, data), TRANSIENT_CASES[case][1]
        expected = score(model, X_query)
        loaded = load_snapshot(save_snapshot(model, tmp_path / case))
        assert all(getattr(loaded, name) is None for name in _transient_attrs(type(loaded)))
        assert score(loaded, X_query).tobytes() == expected.tobytes()
