"""Snapshot persistence: every model family round-trips bit for bit."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.novelty import (
    HBOS,
    LODA,
    DeepIsolationForest,
    IsolationForest,
    KNNDetector,
    LocalOutlierFactor,
    MahalanobisDetector,
    NoveltyDetector,
    OneClassSVM,
    PCAReconstructionDetector,
)
from repro.serve.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
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
    "knn": lambda: KNNDetector(n_neighbors=5, random_state=0),
    "hbos": lambda: HBOS(n_bins=10),
    "mahalanobis": lambda: MahalanobisDetector(),
    "loda": lambda: LODA(n_projections=10, random_state=0),
}


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
        detector = HBOS(n_bins=10).fit(X_train)
        detector.save(tmp_path / "m")
        loaded = HBOS.load(tmp_path / "m")
        assert isinstance(loaded, HBOS)
        # Loading through the base class works too (subclass allowed).
        base_loaded = NoveltyDetector.load(tmp_path / "m")
        np.testing.assert_array_equal(
            base_loaded.score_samples(X_query), detector.score_samples(X_query)
        )

    def test_load_wrong_class_raises(self, data, tmp_path):
        X_train, _, _ = data
        HBOS(n_bins=10).fit(X_train).save(tmp_path / "m")
        with pytest.raises(TypeError, match="expected KNNDetector"):
            KNNDetector.load(tmp_path / "m")


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
        detector = HBOS(n_bins=10).fit(X_train)
        path = detector.save(tmp_path / "m", metadata={"dataset": "unit-test"})
        manifest = read_manifest(path)
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert manifest["class"] == "repro.novelty.hbos:HBOS"
        assert manifest["metadata"] == {"dataset": "unit-test"}
        assert (path / manifest["arrays_file"]).is_file()
        # No pickle anywhere: the manifest is plain JSON and arrays load with
        # allow_pickle=False (load_snapshot would raise otherwise).
        json.loads((path / "manifest.json").read_text())

    def test_unsupported_format_version_rejected(self, data, tmp_path):
        X_train, _, _ = data
        path = HBOS(n_bins=10).fit(X_train).save(tmp_path / "m")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format version"):
            load_snapshot(path)

    def test_disallowed_class_rejected(self, data, tmp_path):
        X_train, _, _ = data
        path = HBOS(n_bins=10).fit(X_train).save(tmp_path / "m")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["objects"][0]["cls"] = "os:system"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="disallowed"):
            load_snapshot(path)

    def test_overwrite_protection(self, data, tmp_path):
        X_train, _, _ = data
        detector = HBOS(n_bins=10).fit(X_train)
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
