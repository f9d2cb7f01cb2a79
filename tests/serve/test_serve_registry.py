"""Model registry: publication, version resolution, pinning."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.novelty import IsolationForest, MahalanobisDetector
from repro.serve.registry import ModelRegistry


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 5))
    return X, IsolationForest(n_estimators=10, random_state=0).fit(X)


class TestPublishAndResolve:
    def test_versions_auto_increment(self, tmp_path, fitted):
        _, model = fitted
        registry = ModelRegistry(tmp_path)
        first = registry.publish(model, "ids")
        second = registry.publish(model, "ids")
        assert (first.version, second.version) == (1, 2)
        assert registry.versions("ids") == [1, 2]
        assert registry.latest_version("ids") == 2
        assert registry.models() == ["ids"]

    def test_resolve_selectors(self, tmp_path, fitted):
        _, model = fitted
        registry = ModelRegistry(tmp_path)
        registry.publish(model, "ids")
        registry.publish(model, "ids")
        assert registry.resolve("ids").version == 2  # no pin -> latest
        assert registry.resolve("ids", "latest").version == 2
        assert registry.resolve("ids", 1).version == 1
        assert registry.resolve("ids", "v1").version == 1
        assert registry.resolve("ids", "1").version == 1

    def test_loaded_model_scores_identically(self, tmp_path, fitted):
        X, model = fitted
        registry = ModelRegistry(tmp_path)
        registry.publish(model, "ids", metadata={"dataset": "blobs"})
        loaded = registry.load("ids")
        np.testing.assert_array_equal(loaded.score_samples(X), model.score_samples(X))
        info = registry.resolve("ids")
        assert info.manifest["metadata"] == {"dataset": "blobs"}

    def test_unknown_lookups_raise(self, tmp_path, fitted):
        _, model = fitted
        registry = ModelRegistry(tmp_path)
        with pytest.raises(KeyError):
            registry.latest_version("ghost")
        registry.publish(model, "ids")
        with pytest.raises(KeyError):
            registry.resolve("ids", 9)
        with pytest.raises(ValueError):
            registry.resolve("ids", "banana")

    def test_invalid_names_rejected(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        for bad in ("../escape", "", "a/b", ".hidden"):
            with pytest.raises(ValueError, match="invalid model name"):
                registry.versions(bad)

    def test_models_skips_stray_directories(self, tmp_path, fitted):
        _, model = fitted
        registry = ModelRegistry(tmp_path)
        registry.publish(model, "ids")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / ".cache").mkdir()
        assert registry.models() == ["ids"]


class TestPinning:
    def test_pin_unpin_cycle(self, tmp_path, fitted):
        _, model = fitted
        registry = ModelRegistry(tmp_path)
        registry.publish(model, "ids")
        registry.publish(model, "ids")
        registry.pin("ids", 1)
        assert registry.pinned_version("ids") == 1
        assert registry.resolve("ids").version == 1  # default follows the pin
        assert registry.resolve("ids", "pinned").version == 1
        assert registry.resolve("ids", "latest").version == 2  # explicit wins
        registry.unpin("ids")
        assert registry.pinned_version("ids") is None
        assert registry.resolve("ids").version == 2
        with pytest.raises(KeyError, match="no pinned version"):
            registry.resolve("ids", "pinned")

    def test_pin_to_missing_version_raises(self, tmp_path, fitted):
        _, model = fitted
        registry = ModelRegistry(tmp_path)
        registry.publish(model, "ids")
        with pytest.raises(KeyError):
            registry.pin("ids", 4)

    def test_delete_version_respects_pin(self, tmp_path, fitted):
        _, model = fitted
        registry = ModelRegistry(tmp_path)
        registry.publish(model, "ids")
        registry.publish(model, "ids")
        registry.pin("ids", 1)
        with pytest.raises(ValueError, match="pinned"):
            registry.delete_version("ids", 1)
        registry.delete_version("ids", 2)
        assert registry.versions("ids") == [1]


class TestHeterogeneousModels:
    def test_one_registry_many_model_types(self, tmp_path, fitted):
        X, model = fitted
        registry = ModelRegistry(tmp_path)
        registry.publish(model, "iforest")
        registry.publish(MahalanobisDetector().fit(X), "mahalanobis")
        assert registry.models() == ["iforest", "mahalanobis"]
        assert isinstance(registry.load("mahalanobis"), MahalanobisDetector)
        assert isinstance(registry.load("iforest"), IsolationForest)

    def test_serve_model_with_a_deleted_class_is_a_one_line_exit(self, tmp_path, fitted):
        """``repro serve --model`` on a snapshot whose class module is gone."""
        from repro.serve.cli import main

        X, _ = fitted
        info = ModelRegistry(tmp_path).publish(MahalanobisDetector().fit(X), "old")
        manifest_path = info.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["objects"][0]["cls"] = "repro.novelty.knn:KNNDetector"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--scale", "0.0015", "--registry", str(tmp_path), "--model", "old"])
        message = str(excinfo.value.code)
        assert "unknown class 'repro.novelty.knn:KNNDetector'" in message
        assert message.startswith("--model old: ") and "\n" not in message

    @pytest.mark.parametrize(
        "selector, reason",
        [
            ("nope", "no published versions of model 'nope' in "),
            ("ids@v7", "model 'ids' has no version v7 in "),
            ("ids@seven", "unrecognised version selector 'seven'"),
        ],
        ids=["missing-model", "missing-version", "malformed-selector"],
    )
    def test_serve_model_that_does_not_resolve_is_a_one_line_exit(
        self, tmp_path, fitted, selector, reason
    ):
        from repro.serve.cli import main

        _, model = fitted
        ModelRegistry(tmp_path).publish(model, "ids")
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--scale", "0.0015", "--registry", str(tmp_path), "--model", selector])
        message = str(excinfo.value.code)
        assert message.startswith(f"--model {selector}: {reason}"), message
        assert "\n" not in message
