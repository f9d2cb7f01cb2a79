"""Base classes for layers: :class:`Parameter` and :class:`Module`.

The design is deliberately explicit rather than autograd-based: every module
implements ``forward`` and ``backward`` with analytical gradients.  This keeps
the substrate small, easy to test, and sufficient for the MLP autoencoders the
paper uses.
"""

from __future__ import annotations

import copy
from typing import Iterator

import numpy as np

__all__ = ["Parameter", "Module"]


class Parameter:
    """A trainable tensor with an associated gradient buffer.

    ``grad`` is ``None`` on the parameters of a frozen :meth:`Module.clone`,
    which only ever runs forward.
    """

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying value array."""
        return self.value.shape

    def zero_grad(self) -> None:
        """Reset the gradient buffer to zeros."""
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Module:
    """Base class for all layers and models.

    Subclasses implement :meth:`forward` and :meth:`backward`.  ``backward``
    receives the gradient of the loss with respect to the module output and
    must (a) accumulate gradients into its parameters and (b) return the
    gradient with respect to its input.
    """

    def __init__(self) -> None:
        self.training = True

    # -- interface -----------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the module output for input ``x``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` and return the gradient w.r.t. the input."""
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """Return all trainable parameters (empty for stateless layers)."""
        return []

    # -- convenience ----------------------------------------------------
    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def zero_grad(self) -> None:
        """Zero the gradient buffers of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        """Switch to training mode (affects e.g. dropout)."""
        self.training = True
        for child in self._children():
            child.train()
        return self

    def eval(self) -> "Module":
        """Switch to evaluation mode and drop the forward caches.

        The attributes a class names in ``_snapshot_transient_`` (the inputs,
        masks and outputs ``backward`` needs) are reset to ``None``, so an
        eval-mode model, and any clone of it, holds no batch activations.
        """
        self.training = False
        for name in getattr(self, "_snapshot_transient_", ()):
            setattr(self, name, None)
        for child in self._children():
            child.eval()
        return self

    def _children(self) -> Iterator["Module"]:
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    # -- state management -----------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a copy of every parameter value, keyed by position and name."""
        return {
            f"{i}:{p.name}": p.value.copy() for i, p in enumerate(self.parameters())
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values previously produced by :meth:`state_dict`.

        Values are written into the existing arrays, so parameters that an
        :class:`repro.nn.optim.Adam` keeps in its flat buffer stay there.
        """
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} entries but module has {len(params)} parameters"
            )
        for i, param in enumerate(params):
            key = f"{i}:{param.name}"
            if key not in state:
                raise KeyError(f"missing parameter {key!r} in state dict")
            if state[key].shape != param.value.shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: expected {param.value.shape}, got {state[key].shape}"
                )
            param.value[...] = state[key]

    def clone(self) -> "Module":
        """Return a deep, independent, frozen copy of this module.

        The copy is in eval mode and keeps no gradient buffers: its
        parameters' ``grad`` is ``None`` and a backward through it raises.
        """
        memo = {id(p.grad): None for p in self.parameters()}
        return copy.deepcopy(self, memo).eval()

    def n_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(p.value.size for p in self.parameters()))
