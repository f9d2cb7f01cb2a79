"""Tests for the CND-IDS model (Algorithm 1) and thresholding strategies."""

from __future__ import annotations

import gc
import types

import numpy as np
import pytest

from repro.continual import ContinualScenario
from repro.core import (
    BestFThresholding,
    CNDIDS,
    CNDLossConfig,
    QuantileThresholding,
)
from repro.datasets import load_dataset
from repro.metrics import f1_score
from repro.nn import Linear, ReLU


@pytest.fixture(scope="module")
def fitted_model(tiny_scenario_module):
    scenario = tiny_scenario_module
    model = CNDIDS(
        input_dim=scenario.n_features,
        latent_dim=16,
        hidden_dims=(32,),
        epochs=3,
        random_state=0,
    )
    model.setup(scenario.clean_normal)
    model.fit_experience(scenario[0].X_train)
    return model, scenario


@pytest.fixture(scope="module")
def tiny_scenario_module():
    dataset = load_dataset("wustl_iiot", scale=0.001, seed=0)
    return ContinualScenario.from_dataset(dataset, n_experiences=2, seed=0)


class TestThresholdingStrategies:
    def test_best_f_requires_labels(self):
        strategy = BestFThresholding()
        with pytest.raises(ValueError, match="labels"):
            strategy.select(np.array([0.1, 0.9]))

    def test_best_f_achieves_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        y = np.array([0, 0, 1, 1])
        threshold = BestFThresholding().select(scores, y_true=y)
        np.testing.assert_array_equal((scores > threshold).astype(int), y)

    def test_quantile_uses_reference_scores(self):
        strategy = QuantileThresholding(quantile=0.9)
        reference = np.linspace(0, 1, 101)
        threshold = strategy.select(np.array([5.0, 6.0]), reference_scores=reference)
        assert threshold == pytest.approx(np.quantile(reference, 0.9))

    def test_quantile_falls_back_to_batch(self):
        strategy = QuantileThresholding(quantile=0.5)
        scores = np.array([1.0, 2.0, 3.0])
        assert strategy.select(scores) == pytest.approx(2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BestFThresholding(beta=0.0)
        with pytest.raises(ValueError):
            QuantileThresholding(quantile=1.0)


class TestCNDIDSLifecycle:
    def test_fit_before_setup_raises(self, tiny_scenario_module):
        model = CNDIDS(input_dim=tiny_scenario_module.n_features, random_state=0)
        with pytest.raises(RuntimeError, match="setup"):
            model.fit_experience(tiny_scenario_module[0].X_train)

    def test_score_before_fit_raises(self, tiny_scenario_module):
        model = CNDIDS(input_dim=tiny_scenario_module.n_features, random_state=0)
        model.setup(tiny_scenario_module.clean_normal)
        with pytest.raises(RuntimeError, match="fitted"):
            model.score_samples(tiny_scenario_module[0].X_test)

    def test_setup_rejects_wrong_feature_count(self):
        model = CNDIDS(input_dim=10, random_state=0)
        with pytest.raises(ValueError, match="features"):
            model.setup(np.zeros((20, 5)) + np.arange(5))

    def test_invalid_input_dim(self):
        with pytest.raises(ValueError):
            CNDIDS(input_dim=0)

    def test_scores_shape_and_finiteness(self, fitted_model):
        model, scenario = fitted_model
        scores = model.score_samples(scenario[0].X_test)
        assert scores.shape == (scenario[0].n_test,)
        assert np.all(np.isfinite(scores))
        assert np.all(scores >= 0.0)

    def test_empty_query_of_wrong_width_raises(self, fitted_model):
        model, scenario = fitted_model
        assert model.score_samples(np.empty((0, scenario.n_features))).shape == (0,)
        with pytest.raises(ValueError, match="features"):
            model.score_samples(np.empty((0, scenario.n_features + 2)))

    def test_predict_binary_with_labels(self, fitted_model):
        model, scenario = fitted_model
        predictions = model.predict(scenario[0].X_test, y_true=scenario[0].y_test)
        assert set(np.unique(predictions)).issubset({0, 1})

    def test_predict_without_labels_uses_quantile_fallback(self, fitted_model):
        model, scenario = fitted_model
        predictions = model.predict(scenario[0].X_test)
        assert predictions.shape == (scenario[0].n_test,)
        assert set(np.unique(predictions)).issubset({0, 1})

    def test_attacks_score_higher_than_normal(self, fitted_model):
        model, scenario = fitted_model
        experience = scenario[0]
        scores = model.score_samples(experience.X_test)
        attack_scores = scores[experience.y_test == 1]
        normal_scores = scores[experience.y_test == 0]
        assert attack_scores.mean() > normal_scores.mean()

    def test_detects_attacks_on_current_experience(self, fitted_model):
        model, scenario = fitted_model
        experience = scenario[0]
        predictions = model.predict(experience.X_test, y_true=experience.y_test)
        assert f1_score(experience.y_test, predictions) > 0.5

    def test_max_clean_normal_subsampling(self, tiny_scenario_module):
        model = CNDIDS(
            input_dim=tiny_scenario_module.n_features, max_clean_normal=50, random_state=0
        )
        model.setup(tiny_scenario_module.clean_normal)
        assert model.clean_normal_.shape[0] == 50

    def test_name(self, tiny_scenario_module):
        assert CNDIDS(input_dim=tiny_scenario_module.n_features).name == "CND-IDS"

    def test_clean_normal_update_disabled_by_default(self, tiny_scenario_module):
        """With the default fraction of 0.0 the clean-normal pool never changes (paper behaviour)."""
        scenario = tiny_scenario_module
        model = CNDIDS(
            input_dim=scenario.n_features, latent_dim=8, hidden_dims=(16,), epochs=2, random_state=0
        )
        model.setup(scenario.clean_normal)
        size_before = model.clean_normal_.shape[0]
        model.fit_experience(scenario[0].X_train)
        assert model.clean_normal_.shape[0] == size_before

    def test_clean_normal_update_grows_pool(self, tiny_scenario_module):
        """The incDFM-style extension adds low-score training samples to the pool."""
        scenario = tiny_scenario_module
        model = CNDIDS(
            input_dim=scenario.n_features,
            latent_dim=8,
            hidden_dims=(16,),
            epochs=2,
            clean_normal_update_fraction=0.2,
            random_state=0,
        )
        model.setup(scenario.clean_normal)
        size_before = model.clean_normal_.shape[0]
        model.fit_experience(scenario[0].X_train)
        expected_added = int(0.2 * scenario[0].n_train)
        assert model.clean_normal_.shape[0] == size_before + expected_added

    def test_clean_normal_update_respects_cap(self, tiny_scenario_module):
        scenario = tiny_scenario_module
        model = CNDIDS(
            input_dim=scenario.n_features,
            latent_dim=8,
            hidden_dims=(16,),
            epochs=2,
            clean_normal_update_fraction=0.5,
            max_clean_normal=100,
            random_state=0,
        )
        model.setup(scenario.clean_normal)
        model.fit_experience(scenario[0].X_train)
        assert model.clean_normal_.shape[0] <= 100

    def test_invalid_clean_normal_update_fraction(self):
        with pytest.raises(ValueError):
            CNDIDS(input_dim=5, clean_normal_update_fraction=1.0)

    def test_calibration_arguments_ignored(self, tiny_scenario_module):
        """CND-IDS never uses labels: passing a calibration set must not change behaviour."""
        scenario = tiny_scenario_module

        def run(with_calibration: bool) -> np.ndarray:
            model = CNDIDS(
                input_dim=scenario.n_features,
                latent_dim=8,
                hidden_dims=(16,),
                epochs=2,
                random_state=0,
            )
            model.setup(scenario.clean_normal)
            experience = scenario[0]
            model.fit_experience(
                experience.X_train,
                calibration_X=experience.calibration_X if with_calibration else None,
                calibration_y=experience.calibration_y if with_calibration else None,
            )
            return model.score_samples(experience.X_test)

        np.testing.assert_allclose(run(True), run(False))


def _reference_scores(model: CNDIDS, X: np.ndarray) -> np.ndarray:
    """Score with the textbook formulation: scaler, ``x @ W + b``, ``np.where``
    ReLU, then the PCA project-and-reconstruct round trip."""
    h = model.scaler.transform(X)
    for layer in model.cfe.autoencoder.encoder.net.layers:
        if isinstance(layer, Linear):
            h = h @ layer.weight.value + layer.bias.value
        else:
            assert isinstance(layer, ReLU)
            h = np.where(h > 0, h, 0.0)
    pca = model.pca_
    return ((h - pca.inverse_transform(pca.transform(h))) ** 2).sum(axis=1)


class TestCNDIDSScoringTolerance:
    """The scoring path stays within ``rtol=1e-12`` of the textbook formulation."""

    def test_scores_match_reference_formulation(self, fitted_model):
        model, scenario = fitted_model
        X = scenario[0].X_test
        np.testing.assert_allclose(model.score_samples(X), _reference_scores(model, X), rtol=1e-12)

    def test_save_load_round_trip_scores_bit_identically(self, fitted_model, tmp_path):
        model, scenario = fitted_model
        X = scenario[0].X_test
        model.save(tmp_path / "cnd")
        loaded = CNDIDS.load(tmp_path / "cnd")
        np.testing.assert_array_equal(loaded.score_samples(X), model.score_samples(X))


class TestCNDIDSScoringPath:
    """``score_samples`` checks once and works in place, with the public chain's bits."""

    @pytest.mark.parametrize("n_rows", [1, 2, 1024, 2049])
    def test_scores_are_the_bytes_of_the_public_chain(self, fitted_model, n_rows):
        model, scenario = fitted_model
        rows = np.random.default_rng(n_rows).integers(0, scenario[0].n_test, size=n_rows)
        X = scenario[0].X_test[rows]
        chain = model.pca_.reconstruction_error(model.cfe.encode(model.scaler.transform(X)))
        assert model.score_samples(X).tobytes() == chain.tobytes()

    def test_read_only_input_is_accepted_and_left_alone(self, fitted_model):
        model, scenario = fitted_model
        X = scenario[0].X_test[:64].copy()
        X.setflags(write=False)
        before = X.tobytes()
        scores = model.score_samples(X)
        assert X.tobytes() == before
        assert scores.tobytes() == model.score_samples(X.copy()).tobytes()

    def test_finite_row_that_overflows_when_standardised_is_rejected(self, fitted_model):
        model, scenario = fitted_model
        feature = int(np.argmin(model.scaler.scale_))
        assert model.scaler.scale_[feature] < 0.5  # so -1e308 / scale_ overflows
        X = scenario[0].X_test[:4].copy()
        X[2, feature] = -1e308
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="NaN or infinite values"
        ):
            model.score_samples(X)


class TestCNDIDSContinualBehaviour:
    def test_multiple_experiences_update_detector(self, tiny_scenario_module):
        scenario = tiny_scenario_module
        model = CNDIDS(
            input_dim=scenario.n_features, latent_dim=8, hidden_dims=(16,), epochs=2, random_state=0
        )
        model.setup(scenario.clean_normal)
        model.fit_experience(scenario[0].X_train)
        first_pca = model.pca_
        model.fit_experience(scenario[1].X_train)
        assert model.experience_count == 2
        assert model.pca_ is not first_pca
        assert model.cfe.n_past_models == 2

    def test_run_scenario_returns_full_result(self, tiny_scenario_module):
        scenario = tiny_scenario_module
        model = CNDIDS(
            input_dim=scenario.n_features, latent_dim=8, hidden_dims=(16,), epochs=2, random_state=0
        )
        result = model.run_scenario(scenario)
        assert result.f1_matrix.values.shape == (2, 2)
        assert not np.any(np.isnan(result.f1_matrix.values))
        assert 0.0 <= result.avg_f1 <= 1.0
        assert result.method_name == "CND-IDS"

    def test_ablation_variants_run(self, tiny_scenario_module):
        scenario = tiny_scenario_module
        for config in (
            CNDLossConfig.without_cluster_separation(),
            CNDLossConfig.without_reconstruction(),
            CNDLossConfig.without_reconstruction_and_continual(),
        ):
            model = CNDIDS(
                input_dim=scenario.n_features,
                latent_dim=8,
                hidden_dims=(16,),
                epochs=2,
                loss_config=config,
                random_state=0,
            )
            result = model.run_scenario(scenario)
            assert np.all(np.isfinite(result.f1_matrix.values))

    def test_deterministic_given_seed(self, tiny_scenario_module):
        scenario = tiny_scenario_module

        def scores() -> np.ndarray:
            model = CNDIDS(
                input_dim=scenario.n_features, latent_dim=8, hidden_dims=(16,), epochs=2, random_state=11
            )
            model.setup(scenario.clean_normal)
            model.fit_experience(scenario[0].X_train)
            return model.score_samples(scenario[0].X_test)

        np.testing.assert_allclose(scores(), scores())


def _reachable_arrays(root) -> list[np.ndarray]:
    """Every ndarray reachable from ``root`` through instance state."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen: set[int] = set()
    stack, arrays = [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return arrays


def _modules(module):
    yield module
    for child in module._children():
        yield from _modules(child)


class TestCNDIDSKeepsNoActivations:
    """Scoring leaves no batch-sized array behind, in the model or its snapshots."""

    @pytest.fixture(scope="class")
    def scored_model(self, tiny_scenario_module):
        scenario = tiny_scenario_module
        model = CNDIDS(input_dim=scenario.n_features, epochs=1, random_state=0)
        model.setup(scenario.clean_normal)
        for experience in scenario:
            model.fit_experience(experience.X_train)
        rows = np.random.default_rng(0).integers(0, scenario[0].n_test, size=5000)
        model.score_samples(scenario[0].X_test[rows])
        return model

    def test_no_array_larger_than_the_weights(self, scored_model):
        largest_weight = max(p.value.nbytes for p in scored_model.cfe.autoencoder.parameters())
        largest = max(_reachable_arrays(scored_model), key=lambda a: a.nbytes)
        assert largest.nbytes <= largest_weight, largest.shape

    def test_snapshots_hold_no_caches(self, scored_model):
        assert scored_model.cfe.n_past_models == 2
        for network in [scored_model.cfe.autoencoder, *scored_model.cfe._past_models]:
            for module in _modules(network):
                for name in getattr(module, "_snapshot_transient_", ()):
                    assert getattr(module, name) is None, (type(module).__name__, name)

    def test_backward_after_eval_forward_raises(self, scored_model):
        autoencoder = scored_model.cfe.autoencoder
        latent = autoencoder.encode(scored_model.clean_normal_)
        with pytest.raises(RuntimeError, match="backward called before forward"):
            autoencoder.backward_through_encoder(np.ones_like(latent))
