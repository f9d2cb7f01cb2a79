"""Host-normalised timing: wall time rescaled by the speed of a fixed probe.

On a shared VM a vCPU runs the same code up to 1.5x slower for stretches of
0.1 s to more than a whole run, while other tenants load its physical core;
CPU time slows as much as wall time, so this is not preemption.  Raw timings
then measure the neighbours as much as the program.  The harness therefore
times :func:`probe`, a fixed NumPy snippet that no change to the library
touches, right next to every timed call, and reports each call's time in
probe units scaled to seconds by ``PROBE_REF_S``::

    normalised = measured * PROBE_REF_S / probe_time

A call slowed by the host is slowed about as much as the probe next to it,
so the ratio stays put; a faster program lowers the ratio.  The raw views
stay in the ``note`` lines.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: A round figure near the probe's time between batches on the 2-vCPU x86 VM
#: the benchmark was tuned on (OpenBLAS 0.3.31); it only sets the scale of
#: the results.
PROBE_REF_S = 125e-6

#: Probes taken at each end of a long call (a set-up step, an experience).
LONG_CALL_PROBES = 3

_PROBE_X = np.random.default_rng(0).random((64, 56))


def probe(repeats: int = 1) -> float:
    """Seconds the fixed probe takes now, on this thread's vCPU.

    With ``repeats`` > 1, the fastest of that many back-to-back probes: the
    first one after a long call runs on cold caches.
    """
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(4):
            mask = np.isfinite(_PROBE_X).all(axis=1)
            np.sort((_PROBE_X[mask] * 2.0).sum(axis=1))
        best = min(best, perf_counter() - start)
    return best


def normalised(seconds: float | np.ndarray, probe_s: float | np.ndarray) -> float | np.ndarray:
    """``seconds`` measured while the probe took ``probe_s``, in reference seconds."""
    return seconds * PROBE_REF_S / probe_s


class Stopwatch:
    """Sums the normalised time of a sequence of steps.

    Each :meth:`lap` closes a step and scales it by the mean of the probes
    taken at its two ends (each the best of ``LONG_CALL_PROBES``).  The
    probes themselves are not timed.
    """

    def __init__(self) -> None:
        self.seconds = 0.0  # normalised
        self.raw_seconds = 0.0
        self._probe = probe(LONG_CALL_PROBES)
        self._start = perf_counter()

    def lap(self) -> None:
        elapsed = perf_counter() - self._start
        end_probe = probe(LONG_CALL_PROBES)
        self.seconds += normalised(elapsed, 0.5 * (self._probe + end_probe))
        self.raw_seconds += elapsed
        self._probe = end_probe
        self._start = perf_counter()
