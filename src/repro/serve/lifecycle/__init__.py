"""Model lifecycle management during serving: online refit and hot-swap.

PR 2's serving stack could only *reload an already-published snapshot* when
drift fired; this package closes the continual-adaptation loop the paper
claims: detect drift, refit on a clean recent window drawn from the stream
itself, gate the candidate's quality, republish to the registry, and swap the
served model.

* :mod:`repro.serve.lifecycle.buffer` — :class:`WindowBuffer`, a bounded
  reservoir of recent below-threshold rows (refit data with bounded memory),
* :mod:`repro.serve.lifecycle.policy` — :class:`FullRefit` /
  :class:`ContinualRefit` / :class:`NoRefit` refit strategies,
* :mod:`repro.serve.lifecycle.gate` — :class:`QualityGate`, the
  score-distribution sanity check a candidate must pass before publishing,
* :mod:`repro.serve.lifecycle.manager` — :class:`LifecycleManager`, which
  composes buffer + policy + gate + registry and swaps a gate-passed
  candidate in right away.

Wire a manager into :class:`~repro.serve.service.DetectionService` via its
``lifecycle=`` parameter.
"""

from repro.serve.lifecycle.buffer import WindowBuffer
from repro.serve.lifecycle.gate import GateResult, QualityGate
from repro.serve.lifecycle.manager import LifecycleEvent, LifecycleManager
from repro.serve.lifecycle.policy import (
    ContinualRefit,
    FullRefit,
    NoRefit,
    RefitPolicy,
    clone_model,
)

__all__ = [
    "ContinualRefit",
    "FullRefit",
    "GateResult",
    "LifecycleEvent",
    "LifecycleManager",
    "NoRefit",
    "QualityGate",
    "RefitPolicy",
    "WindowBuffer",
    "clone_model",
]
