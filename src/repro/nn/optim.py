"""The Adam optimizer, stepping one flat parameter vector per model."""

from __future__ import annotations

import numpy as np

from repro.ml import native
from repro.nn.module import Parameter

__all__ = ["Adam"]


class Adam:
    """Adam optimizer (Kingma & Ba, 2015) — the optimizer used in the paper.

    At construction every parameter's ``value`` and ``grad`` are copied into
    one contiguous float64 vector each and re-bound as views into them, so one
    call of a :class:`repro.ml.native.AdamStep` bound to those vectors (or
    one NumPy pass per operation) updates the whole model.  Hence one live
    ``Adam`` per parameter set: a second optimizer over the same parameters
    re-homes them and the first one stops seeing them.  Layers must accumulate into ``grad`` in place and
    :meth:`repro.nn.module.Module.load_state_dict` writes values in place; a
    parameter whose ``value`` or ``grad`` was re-bound makes :meth:`step`
    raise instead of silently updating a stale buffer.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not params:
            raise ValueError("optimizer received an empty parameter list")
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must each be in [0, 1)")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        n = sum(p.value.size for p in self.params)
        self._value = np.empty(n)
        self._grad = np.empty(n)
        self._m = np.zeros(n)
        self._v = np.zeros(n)
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None
        offset = 0
        for param in self.params:
            stop = offset + param.value.size
            value = self._value[offset:stop].reshape(param.value.shape)
            grad = self._grad[offset:stop].reshape(param.value.shape)
            value[...] = param.value
            grad[...] = param.grad
            param.value, param.grad = value, grad
            offset = stop
        self._homes = [(p.value, p.grad) for p in self.params]
        self._kernel = native.AdamStep(self._value, self._grad, self._m, self._v)
        self._t = 0

    def _check_homes(self) -> None:
        for param, (value, grad) in zip(self.params, self._homes):
            if param.value is not value or param.grad is not grad:
                raise RuntimeError(
                    f"parameter {param.name!r} was re-bound away from the optimizer's "
                    "buffer; update it in place (e.g. load_state_dict) instead"
                )

    def zero_grad(self) -> None:
        """Zero the gradient buffer of every tracked parameter."""
        self._check_homes()
        self._grad.fill(0.0)

    def step(self) -> None:
        """Apply one update using the gradients currently stored in the parameters."""
        self._check_homes()
        self._t += 1
        bias_correction1 = 1.0 - self.beta1**self._t
        bias_correction2 = 1.0 - self.beta2**self._t
        if not self._kernel(
            self.lr, self.beta1, self.beta2, bias_correction1, bias_correction2, self.eps
        ):
            self._numpy_step(bias_correction1, bias_correction2)

    def _numpy_step(self, bias_correction1: float, bias_correction2: float) -> None:
        """The native kernel's operations, one whole-vector pass each."""
        if self._scratch is None:
            self._scratch = (np.empty_like(self._value), np.empty_like(self._value))
        step, denom = self._scratch
        m, v, grad = self._m, self._v, self._grad
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=step)
        m += step
        v *= self.beta2
        np.multiply(grad, grad, out=step)
        step *= 1.0 - self.beta2
        v += step
        np.divide(m, bias_correction1, out=step)
        step *= self.lr
        np.divide(v, bias_correction2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        self._value -= step
