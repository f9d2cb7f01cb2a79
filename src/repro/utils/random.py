"""Random-state helpers.

Every estimator in the library accepts a ``random_state`` argument and routes
it through :func:`check_random_state` so experiments are reproducible end to
end from a single integer seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_random_state"]


def check_random_state(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the given seed.

    Parameters
    ----------
    seed:
        ``None`` for a non-deterministic generator, an ``int`` seed, or an
        existing :class:`numpy.random.Generator` which is returned unchanged.

    Raises
    ------
    TypeError
        If ``seed`` is not one of the accepted types.
    """
    if seed is None:
        # The documented opt-out: None asks for nondeterminism by name, and
        # every estimator and experiment config defaults to an integer seed.
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(
        f"random_state must be None, an int, or a numpy Generator; got {type(seed).__name__}"
    )
