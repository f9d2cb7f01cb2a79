"""Tests for the Module/Parameter base classes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Linear, ReLU, Sequential
from repro.nn.module import Parameter


class TestParameter:
    def test_grad_initialised_to_zero(self):
        param = Parameter(np.ones((3, 2)))
        assert param.grad.shape == (3, 2)
        assert np.all(param.grad == 0.0)

    def test_zero_grad_clears_accumulated_gradient(self):
        param = Parameter(np.ones(4))
        param.grad += 2.0
        param.zero_grad()
        assert np.all(param.grad == 0.0)

    def test_shape_property(self):
        assert Parameter(np.zeros((5, 7))).shape == (5, 7)


class TestModuleStateDict:
    def test_state_dict_roundtrip(self):
        model = Sequential(Linear(4, 3, random_state=0), ReLU(), Linear(3, 2, random_state=1))
        state = model.state_dict()
        clone = Sequential(Linear(4, 3, random_state=5), ReLU(), Linear(3, 2, random_state=6))
        clone.load_state_dict(state)
        x = np.random.default_rng(0).normal(size=(6, 4))
        np.testing.assert_allclose(model(x), clone(x))

    def test_load_state_dict_wrong_length_raises(self):
        model = Linear(4, 3, random_state=0)
        with pytest.raises(ValueError, match="parameters"):
            model.load_state_dict({})

    def test_load_state_dict_wrong_shape_raises(self):
        model = Linear(4, 3, random_state=0)
        state = model.state_dict()
        bad = {key: np.zeros((1, 1)) for key in state}
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_dict(bad)

    def test_state_dict_values_are_copies(self):
        model = Linear(2, 2, random_state=0)
        state = model.state_dict()
        for value in state.values():
            value.fill(99.0)
        assert not np.any(model.weight.value == 99.0)


class TestModuleClone:
    def test_clone_is_independent(self):
        model = Linear(3, 3, random_state=0)
        clone = model.clone()
        model.weight.value += 10.0
        assert not np.allclose(model.weight.value, clone.weight.value)

    def test_clone_preserves_outputs(self):
        model = Sequential(Linear(3, 5, random_state=0), ReLU())
        clone = model.clone()
        x = np.random.default_rng(1).normal(size=(4, 3))
        np.testing.assert_allclose(model(x), clone(x))

    def test_clone_is_frozen(self):
        model = Sequential(Linear(3, 5, random_state=0), ReLU(), Linear(5, 2, random_state=1))
        clone = model.clone()
        assert not clone.training
        assert all(p.grad is None for p in clone.parameters())
        assert all(p.grad is not None for p in model.parameters())
        clone.train()
        clone(np.ones((4, 3)))
        with pytest.raises(RuntimeError, match="frozen"):
            clone.backward(np.ones((4, 2)))


class TestTrainEvalMode:
    def test_train_eval_propagates_to_children(self):
        model = Sequential(Linear(2, 2, random_state=0), ReLU())
        model.eval()
        assert all(not layer.training for layer in model.layers)
        model.train()
        assert all(layer.training for layer in model.layers)

    def test_n_parameters_counts_scalars(self):
        model = Linear(4, 3, random_state=0)
        assert model.n_parameters() == 4 * 3 + 3
