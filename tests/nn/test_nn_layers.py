"""Layer forward/backward tests, including numerical gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    LeakyReLU,
    Linear,
    MSELoss,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    he_init,
    xavier_init,
)


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = f()
        flat[i] = original - eps
        minus = f()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3, random_state=0)
        assert layer(np.zeros((7, 5))).shape == (7, 3)

    def test_rejects_wrong_input_dim(self):
        layer = Linear(5, 3, random_state=0)
        with pytest.raises(ValueError, match="expected input"):
            layer(np.zeros((7, 4)))

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_rejects_unknown_init(self):
        with pytest.raises(ValueError, match="init"):
            Linear(2, 2, init="bogus")

    def test_backward_before_forward_raises(self):
        layer = Linear(2, 2, random_state=0)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_weight_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        layer = Linear(4, 3, random_state=1)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))
        loss_fn = MSELoss()

        def loss_value() -> float:
            return loss_fn(layer(x), target)[0]

        _, grad_out = loss_fn(layer(x), target)
        layer.zero_grad()
        layer.backward(grad_out)
        numerical = numerical_gradient(loss_value, layer.weight.value)
        np.testing.assert_allclose(layer.weight.grad, numerical, atol=1e-6)

    def test_bias_gradient_matches_numerical(self):
        rng = np.random.default_rng(3)
        layer = Linear(3, 2, random_state=2)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))
        loss_fn = MSELoss()

        def loss_value() -> float:
            return loss_fn(layer(x), target)[0]

        _, grad_out = loss_fn(layer(x), target)
        layer.zero_grad()
        layer.backward(grad_out)
        numerical = numerical_gradient(loss_value, layer.bias.value)
        np.testing.assert_allclose(layer.bias.grad, numerical, atol=1e-6)

    def test_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(4)
        layer = Linear(4, 4, random_state=5)
        x = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))
        loss_fn = MSELoss()

        def loss_value() -> float:
            return loss_fn(layer(x), target)[0]

        _, grad_out = loss_fn(layer(x), target)
        grad_in = layer.backward(grad_out)
        numerical = numerical_gradient(loss_value, x)
        np.testing.assert_allclose(grad_in, numerical, atol=1e-6)


class TestInitializers:
    def test_xavier_stays_inside_glorot_limit(self):
        weight = xavier_init(40, 10, 0)
        limit = np.sqrt(6.0 / 50)
        assert weight.shape == (40, 10)
        assert np.all(np.abs(weight) <= limit)
        assert np.abs(weight).max() > 0.9 * limit

    def test_he_spread_matches_fan_in(self):
        weight = he_init(200, 300, 0)
        assert weight.shape == (200, 300)
        assert weight.std() == pytest.approx(np.sqrt(2.0 / 200), rel=0.02)
        assert abs(weight.mean()) < 0.005

    @pytest.mark.parametrize(("init", "draw"), [("he", he_init), ("xavier", xavier_init)])
    def test_linear_draws_its_weight_from_the_named_scheme(self, init, draw):
        layer = Linear(6, 4, init=init, random_state=3)
        np.testing.assert_array_equal(layer.weight.value, draw(6, 4, 3))
        np.testing.assert_array_equal(layer.bias.value, np.zeros(4))


@pytest.mark.parametrize("activation_cls", [ReLU, LeakyReLU, Tanh, Sigmoid])
class TestActivations:
    def test_shape_preserved(self, activation_cls):
        layer = activation_cls()
        x = np.random.default_rng(0).normal(size=(6, 5))
        assert layer(x).shape == x.shape

    def test_backward_before_forward_raises(self, activation_cls):
        with pytest.raises(RuntimeError):
            activation_cls().backward(np.ones((2, 2)))

    def test_gradient_matches_numerical(self, activation_cls):
        rng = np.random.default_rng(1)
        layer = activation_cls()
        x = rng.normal(size=(4, 3)) + 0.05  # avoid the ReLU kink at exactly 0
        target = rng.normal(size=(4, 3))
        loss_fn = MSELoss()

        def loss_value() -> float:
            return loss_fn(layer(x), target)[0]

        _, grad_out = loss_fn(layer(x), target)
        grad_in = layer.backward(grad_out)

        numerical = np.zeros_like(x)
        eps = 1e-6
        for index in np.ndindex(*x.shape):
            original = x[index]
            x[index] = original + eps
            plus = loss_value()
            x[index] = original - eps
            minus = loss_value()
            x[index] = original
            numerical[index] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(grad_in, numerical, atol=1e-5)


class TestActivationValues:
    def test_relu_zeroes_negatives(self):
        out = ReLU()(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_leaky_relu_keeps_scaled_negatives(self):
        out = LeakyReLU(0.1)(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(out, [[-0.1, 2.0]])

    def test_leaky_relu_rejects_negative_slope(self):
        with pytest.raises(ValueError):
            LeakyReLU(-0.1)

    def test_sigmoid_range(self):
        out = Sigmoid()(np.array([[-100.0, 0.0, 100.0]]))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert out[0, 1] == pytest.approx(0.5)

    def test_tanh_matches_numpy(self):
        x = np.array([[-2.0, 0.5]])
        np.testing.assert_allclose(Tanh()(x), np.tanh(x))


_RELU_INPUTS = {
    "random": np.random.default_rng(10).normal(size=(64, 33)),
    "signed_zeros": np.array([[-0.0, 0.0, -0.0, 0.0]] * 40),
    "infinities": np.array([[-np.inf, np.inf, -1.0, 1.0]] * 40),
}


class TestForwardMatchesReferenceFormula:
    """``ReLU`` and ``Linear`` reproduce ``np.where(x > 0, x, 0)`` and ``x @ W + b`` bit for bit."""

    @pytest.mark.parametrize("name", sorted(_RELU_INPUTS))
    def test_relu_is_bit_identical_to_where(self, name):
        x = _RELU_INPUTS[name]
        out = ReLU()(x)
        reference = np.where(x > 0, x, 0.0)
        np.testing.assert_array_equal(out, reference)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(reference))

    def test_relu_propagates_nan(self):
        out = ReLU()(np.array([[np.nan, -1.0, 1.0]]))
        assert np.isnan(out[0, 0])
        np.testing.assert_array_equal(out[0, 1:], [0.0, 1.0])

    def test_relu_backward_uses_forward_mask(self):
        layer = ReLU()
        x = np.array([[-2.0, -0.0, 0.0, 3.0, np.nan]])
        layer(x)
        grad = layer.backward(np.full_like(x, 5.0))
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 0.0, 5.0, 0.0]])

    @pytest.mark.parametrize("n_rows", [0, 1, 17, 256])
    def test_linear_is_bit_identical_and_leaves_operands_alone(self, n_rows):
        rng = np.random.default_rng(n_rows)
        layer = Linear(9, 5, random_state=0)
        layer.bias.value = rng.normal(size=5)
        x = rng.normal(size=(n_rows, 9))
        before = (x.copy(), layer.weight.value.copy(), layer.bias.value.copy())
        out = layer(x)
        np.testing.assert_array_equal(out, before[0] @ before[1] + before[2])
        for operand, original in zip((x, layer.weight.value, layer.bias.value), before):
            np.testing.assert_array_equal(operand, original)


class TestSequential:
    def test_forward_chains_layers(self):
        model = Sequential(Linear(4, 8, random_state=0), ReLU(), Linear(8, 2, random_state=1))
        assert model(np.zeros((3, 4))).shape == (3, 2)

    def test_parameters_collects_all(self):
        model = Sequential(Linear(4, 8, random_state=0), ReLU(), Linear(8, 2, random_state=1))
        assert len(model.parameters()) == 4

    def test_len_and_getitem(self):
        relu = ReLU()
        model = Sequential(Linear(2, 2, random_state=0), relu)
        assert len(model) == 2
        assert model[1] is relu

    def test_training_stack_matches_numpy_reference_bytes(self):
        """The ReLU that writes into the ``Linear`` output keeps the textbook
        forward and gradients, byte for byte, pass after pass."""
        rng = np.random.default_rng(3)
        first, second = Linear(6, 16, random_state=0), Linear(16, 4, random_state=1)
        first.bias.value[:] = rng.normal(size=16)
        model = Sequential(first, ReLU(), second).train()
        for _ in range(2):  # the second pass must not reuse the first one's mask
            x, grad = rng.normal(size=(32, 6)), rng.normal(size=(32, 4))
            model.zero_grad()
            out = model(x)
            model.backward(grad)
            w1, b1, w2, b2 = (p.value for p in model.parameters())
            h = x @ w1 + b1
            a = np.where(h > 0, h, 0.0)
            grad_h = (grad @ w2.T) * (h > 0)
            expected = [
                a @ w2 + b2,
                np.zeros_like(w1) + x.T @ grad_h,
                np.zeros_like(b1) + grad_h.sum(axis=0),
                np.zeros_like(w2) + a.T @ grad,
                np.zeros_like(b2) + grad.sum(axis=0),
            ]
            actual = [out, *(p.grad for p in model.parameters())]
            for got, want in zip(actual, expected):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_leading_relu_never_writes_into_the_input(self, mode):
        x = np.array([[-1.0, 2.0], [3.0, -4.0]])
        x.setflags(write=False)
        model = Sequential(ReLU(), Linear(2, 3, random_state=0), ReLU())
        getattr(model, mode)()
        out = model(x)
        np.testing.assert_array_equal(x, [[-1.0, 2.0], [3.0, -4.0]])
        layer = model[1]
        np.testing.assert_array_equal(
            out, np.maximum(np.maximum(x, 0.0) @ layer.weight.value + layer.bias.value, 0.0)
        )

    def test_end_to_end_gradient_check(self):
        rng = np.random.default_rng(9)
        model = Sequential(Linear(3, 6, random_state=0), Tanh(), Linear(6, 2, random_state=1))
        x = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 2))
        loss_fn = MSELoss()

        def loss_value() -> float:
            return loss_fn(model(x), target)[0]

        _, grad_out = loss_fn(model(x), target)
        model.zero_grad()
        model.backward(grad_out)
        first_linear = model[0]
        numerical = numerical_gradient(loss_value, first_linear.weight.value)
        np.testing.assert_allclose(first_linear.weight.grad, numerical, atol=1e-6)


_CACHING_LAYERS = {
    "Linear": lambda: Linear(4, 4, random_state=0),
    "ReLU": ReLU,
    "LeakyReLU": LeakyReLU,
    "Tanh": Tanh,
    "Sigmoid": Sigmoid,
}


@pytest.mark.parametrize("make", list(_CACHING_LAYERS.values()), ids=list(_CACHING_LAYERS))
class TestEvalModeKeepsNoBackwardState:
    def test_eval_forward_caches_nothing(self, make):
        layer = make().eval()
        out = layer(np.random.default_rng(0).normal(size=(8, 4)))
        assert all(getattr(layer, name) is None for name in layer._snapshot_transient_)
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.ones_like(out))

    def test_eval_drops_training_cache(self, make):
        layer = make().train()
        out = layer(np.random.default_rng(1).normal(size=(8, 4)))
        layer.eval()
        assert all(getattr(layer, name) is None for name in layer._snapshot_transient_)
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.ones_like(out))
