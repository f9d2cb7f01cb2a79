"""Optimizer tests: validation, convergence, the flat-buffer contract and bit-identity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, Linear, MSELoss
from repro.nn.module import Parameter


@pytest.fixture(params=["native", "numpy"])
def adam_backend(request, monkeypatch):
    """Run a test with the native ``adam_step`` kernel and with the NumPy fallback."""
    if request.param == "numpy":
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    else:
        from repro.ml import native

        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        if not native.available():
            pytest.skip("native kernels unavailable (no C compiler)")
    return request.param


def _quadratic_minimisation(optimizer_factory, n_steps: int = 200) -> float:
    """Minimise ||x - 3||^2 starting from zero; return the final distance to the optimum."""
    param = Parameter(np.zeros(4))
    optimizer = optimizer_factory([param])
    for _ in range(n_steps):
        param.zero_grad()
        param.grad += 2.0 * (param.value - 3.0)
        optimizer.step()
    return float(np.abs(param.value - 3.0).max())


class _ReferenceAdam:
    """The per-parameter NumPy step ``Adam`` had before its flat buffer."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.value) for p in params]
        self._v = [np.zeros_like(p.value) for p in params]
        self._t = 0

    def step(self):
        self._t += 1
        bias_correction1 = 1.0 - self.beta1**self._t
        bias_correction2 = 1.0 - self.beta2**self._t
        for param, m, v in zip(self.params, self._m, self._v):
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias_correction1
            v_hat = v / bias_correction2
            param.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class TestOptimizerValidation:
    def test_empty_parameter_list_raises(self):
        with pytest.raises(ValueError, match="empty"):
            Adam([], lr=0.1)

    def test_nonpositive_lr_raises(self):
        with pytest.raises(ValueError, match="learning rate"):
            Adam([Parameter(np.zeros(2))], lr=0.0)

    def test_adam_invalid_betas(self):
        with pytest.raises(ValueError, match="betas"):
            Adam([Parameter(np.zeros(2))], lr=0.1, betas=(1.0, 0.9))

    def test_zero_grad_clears_all(self):
        params = [Parameter(np.zeros(3)), Parameter(np.zeros(2))]
        optimizer = Adam(params, lr=0.1)
        for param in params:
            param.grad += 1.0
        optimizer.zero_grad()
        assert all(np.all(p.grad == 0.0) for p in params)


class TestConvergence:
    def test_adam_converges_on_quadratic(self, adam_backend):
        assert _quadratic_minimisation(lambda p: Adam(p, lr=0.1)) < 1e-2

    def test_adam_trains_linear_regression(self, adam_backend):
        rng = np.random.default_rng(0)
        true_w = rng.normal(size=(5, 1))
        X = rng.normal(size=(200, 5))
        y = X @ true_w
        model = Linear(5, 1, random_state=0)
        optimizer = Adam(model.parameters(), lr=0.05)
        loss_fn = MSELoss()
        for _ in range(300):
            prediction = model(X)
            _, grad = loss_fn(prediction, y)
            model.zero_grad()
            model.backward(grad)
            optimizer.step()
        final_loss, _ = loss_fn(model(X), y)
        assert final_loss < 1e-3

    def test_adam_step_count_increases(self):
        param = Parameter(np.zeros(2))
        optimizer = Adam([param], lr=0.01)
        param.grad += 1.0
        optimizer.step()
        optimizer.step()
        assert optimizer._t == 2


class TestFlatBuffer:
    def test_parameters_become_views_of_one_buffer(self):
        params = [Parameter(np.arange(6.0).reshape(2, 3)), Parameter(np.array([7.0]))]
        optimizer = Adam(params, lr=0.1)
        np.testing.assert_array_equal(optimizer._value, [0, 1, 2, 3, 4, 5, 7])
        assert params[0].value.shape == (2, 3)
        assert all(np.shares_memory(p.value, optimizer._value) for p in params)
        assert all(np.shares_memory(p.grad, optimizer._grad) for p in params)

    def test_step_after_load_state_dict_updates_loaded_values(self, adam_backend):
        model = Linear(3, 2, random_state=0)
        optimizer = Adam(model.parameters(), lr=0.1)
        state = {key: np.full_like(value, 5.0) for key, value in model.state_dict().items()}
        model.load_state_dict(state)
        model.weight.grad += 1.0
        model.bias.grad += 1.0
        optimizer.step()
        # The first Adam step moves every coordinate by lr against its gradient sign.
        np.testing.assert_allclose(model.weight.value, 4.9)
        np.testing.assert_allclose(model.bias.value, 4.9)

    @pytest.mark.parametrize("attribute", ["value", "grad"])
    def test_rebound_parameter_makes_step_raise(self, attribute):
        model = Linear(3, 2, random_state=0)
        optimizer = Adam(model.parameters(), lr=0.1)
        setattr(model.bias, attribute, np.zeros(2))
        with pytest.raises(RuntimeError, match="re-bound"):
            optimizer.step()
        with pytest.raises(RuntimeError, match="re-bound"):
            optimizer.zero_grad()

    def test_second_optimizer_takes_over_the_parameters(self):
        param = Parameter(np.zeros(3))
        first = Adam([param], lr=0.1)
        Adam([param], lr=0.1)
        with pytest.raises(RuntimeError, match="re-bound"):
            first.step()


class TestAdamKernelBinding:
    """``native.AdamStep`` binds raw addresses, so it checks the vectors once."""

    @staticmethod
    def _vectors():
        return [np.full(3, 1.0), np.full(3, 0.5), np.zeros(3), np.zeros(3)]

    def test_bad_vectors_are_rejected(self):
        from repro.ml import native

        value, grad, m, v = self._vectors()
        with pytest.raises(TypeError):
            native.AdamStep(value.astype(np.float32), grad, m, v)
        with pytest.raises(ValueError):
            native.AdamStep(value, grad[:2], m, v)
        value.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            native.AdamStep(value, grad, m, v)

    def test_a_copy_steps_its_own_vectors(self, monkeypatch):
        import copy

        from repro.ml import native

        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        if not native.available():
            pytest.skip("native kernels unavailable (no C compiler)")
        vectors = self._vectors()
        clone = copy.deepcopy(native.AdamStep(*vectors))
        assert clone(0.1, 0.9, 0.999, 0.1, 0.001, 1e-8)
        np.testing.assert_array_equal(vectors[0], 1.0)
        assert (clone._arrays[0] < 1.0).all()


class TestAdamMatchesPerParameterStep:
    def test_500_steps_bit_identical(self, adam_backend):
        shapes = [(7, 5), (5,), (1,), (3, 1), (64, 33)]
        rng = np.random.default_rng(0)
        initial = [rng.normal(size=shape) for shape in shapes]
        params = [Parameter(value) for value in initial]
        reference = [Parameter(value) for value in initial]
        optimizer = Adam(params, lr=1e-3)
        expected = _ReferenceAdam(reference, lr=1e-3)
        for step in range(500):
            for param, ref in zip(params, reference):
                grad = rng.normal(size=param.value.shape) * 10.0 ** rng.integers(-12, 13)
                grad[rng.random(grad.shape) < 0.1] = 0.0
                grad[rng.random(grad.shape) < 0.1] = -0.0
                if step % 50 == 0:
                    grad.flat[0] = 1e150
                param.grad[...] = grad
                ref.grad[...] = grad
            optimizer.step()
            expected.step()
        for param, ref in zip(params, reference):
            assert param.value.tobytes() == ref.value.tobytes()
        for mine, theirs in zip((optimizer._m, optimizer._v), (expected._m, expected._v)):
            assert mine.tobytes() == np.concatenate([a.ravel() for a in theirs]).tobytes()
