"""Layer implementations with explicit forward/backward passes."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import he_init, xavier_init
from repro.nn.module import Module, Parameter
from repro.utils.random import check_random_state

__all__ = [
    "Linear",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Sequential",
]


class Linear(Module):
    """Fully connected layer ``y = x W + b``.

    Only training-mode forwards cache the input for ``backward``; eval mode
    keeps no backward state.
    """

    #: forward-pass cache, rebuilt on the next forward; skipped by snapshots.
    _snapshot_transient_ = ("_input",)

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        init: str = "he",
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = check_random_state(random_state)
        if init == "he":
            weight = he_init(in_features, out_features, rng)
        elif init == "xavier":
            weight = xavier_init(in_features, out_features, rng)
        else:
            raise ValueError(f"unknown init scheme {init!r}; use 'he' or 'xavier'")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(weight, name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias")
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (n, {self.in_features}), got {x.shape}"
            )
        if self.training:
            self._input = x
        out = x @ self.weight.value
        out += self.bias.value
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        if self.weight.grad is None:
            raise RuntimeError("backward through a frozen clone, which has no gradient buffers")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self.weight.grad += self._input.T @ grad_output
        self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.value.T

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class ReLU(Module):
    """Rectified linear unit.

    NaN inputs propagate as NaN (PyTorch's semantics); every other input,
    signed zeros and infinities included, maps to ``np.where(x > 0, x, 0.0)``
    bit for bit.  Only training-mode forwards keep the mask for ``backward``;
    eval mode keeps no backward state.  ``forward(x, out=x)`` overwrites
    ``x`` with the result (the mask is taken first).
    """

    _snapshot_transient_ = ("_mask",)

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.training:
            self._mask = x > 0
        return np.maximum(x, 0.0, out=out)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    _snapshot_transient_ = ("_mask",)

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        if negative_slope < 0:
            raise ValueError("negative_slope must be non-negative")
        self.negative_slope = negative_slope
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        if self.training:
            self._mask = mask
        return np.where(mask, x, self.negative_slope * x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * np.where(self._mask, 1.0, self.negative_slope)


class Tanh(Module):
    """Hyperbolic tangent activation."""

    _snapshot_transient_ = ("_output",)

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        if self.training:
            self._output = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * (1.0 - self._output**2)


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    _snapshot_transient_ = ("_output",)

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        if self.training:
            self._output = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._output * (1.0 - self._output)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the layers in order.

        A :class:`ReLU` that directly follows a :class:`Linear` writes its
        result into the new array that ``Linear`` returned, instead of
        allocating another; in training mode it takes its mask first.  The
        values are the same bits either way.  Anywhere else, and for
        subclasses of either, every layer returns a new array, so the
        caller's ``x`` is never written to, even when the first layer is a
        ``ReLU``.
        """
        previous: Module | None = None
        for layer in self.layers:
            if type(layer) is ReLU and type(previous) is Linear:
                x = layer.forward(x, out=x)
            else:
                x = layer(x)
            previous = layer
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
