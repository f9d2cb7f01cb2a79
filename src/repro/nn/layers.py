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
    "Dropout",
    "BatchNorm1d",
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
    eval mode keeps no backward state.
    """

    _snapshot_transient_ = ("_mask",)

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

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


class Dropout(Module):
    """Inverted dropout; identity in evaluation mode."""

    _snapshot_transient_ = ("_mask",)

    def __init__(
        self, p: float = 0.5, random_state: int | np.random.Generator | None = None
    ) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = check_random_state(random_state)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class BatchNorm1d(Module):
    """Batch normalisation over the feature dimension.

    In training mode the batch mean/variance are used and running statistics
    are updated; in evaluation mode the running statistics are used and no
    backward state is kept.
    """

    _snapshot_transient_ = ("_cache",)

    def __init__(self, num_features: int, *, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        if num_features < 1:
            raise ValueError("num_features must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must be in (0, 1]")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features), name="gamma")
        self.beta = Parameter(np.zeros(num_features), name="beta")
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(f"expected input of shape (n, {self.num_features}), got {x.shape}")
        if self.training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        normalised = (x - mean) * inv_std
        if self.training:
            self._cache = (normalised, inv_std, x - mean)
        return self.gamma.value * normalised + self.beta.value

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        normalised, inv_std, centered = self._cache
        n = grad_output.shape[0]
        self.gamma.grad += np.sum(grad_output * normalised, axis=0)
        self.beta.grad += grad_output.sum(axis=0)
        grad_normalised = grad_output * self.gamma.value
        # Full batch-norm backward through the batch statistics.
        grad_var = np.sum(grad_normalised * centered * -0.5 * inv_std**3, axis=0)
        grad_mean = np.sum(-grad_normalised * inv_std, axis=0) + grad_var * np.mean(
            -2.0 * centered, axis=0
        )
        return grad_normalised * inv_std + grad_var * 2.0 * centered / n + grad_mean / n

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
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
