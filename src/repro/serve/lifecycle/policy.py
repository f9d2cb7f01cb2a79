"""Refit policies: how a serving deployment turns a clean window into a model.

A :class:`RefitPolicy` receives the currently served model plus the clean
recent window collected by :class:`~repro.serve.lifecycle.buffer.WindowBuffer`
and returns a *candidate* model (or ``None`` to decline).  The candidate is
never the served object itself — policies clone through the pickle-free
snapshot codec (:func:`clone_model`) so the service can keep scoring the old
model while the candidate trains, and a rejected candidate leaves no trace.

Three policies cover the spectrum the paper's continual story needs:

* :class:`FullRefit` — fit a fresh detector of the same class (or from an
  explicit factory) from scratch on the window; the strongest reaction to
  covariate drift, at full training cost.
* :class:`ContinualRefit` — route the window through the model's own
  continual update path (:meth:`repro.continual.base.ContinualMethod.update`),
  preserving what the model already knows; the paper's CND-IDS adaptation.
* :class:`NoRefit` — decline to produce a candidate, which makes the
  lifecycle manager fall back to reloading the latest published registry
  version (the pre-lifecycle behavior of ``make_registry_reload``).
"""

from __future__ import annotations

import tempfile
from typing import Any, Callable

import numpy as np

__all__ = ["RefitPolicy", "FullRefit", "ContinualRefit", "NoRefit", "clone_model"]


def clone_model(model: Any) -> Any:
    """Deep-clone a model through the snapshot codec (no pickle, no sharing).

    The clone scores bit-identically to the original but shares no mutable
    state, so it can be trained or discarded without touching the served
    model mid-stream.
    """
    from repro.serve.snapshot import load_snapshot, save_snapshot

    with tempfile.TemporaryDirectory(prefix="repro-clone-") as tmp:
        return load_snapshot(save_snapshot(model, f"{tmp}/model"))


class RefitPolicy:
    """Strategy interface: produce a candidate model from the clean window."""

    #: Short identifier recorded in lifecycle events and registry metadata.
    name: str = "refit"

    def refit(self, current: Any, X_clean: np.ndarray) -> Any | None:
        """Return a fitted candidate, or ``None`` to decline (reload fallback).

        Implementations must not mutate ``current`` — it is still being
        served while the candidate trains.
        """
        raise NotImplementedError


class FullRefit(RefitPolicy):
    """Refit the detector class from scratch on the clean window.

    Parameters
    ----------
    factory:
        Optional zero-argument callable building a fresh *unfitted* model
        (use it to keep non-default hyper-parameters explicit).  Without a
        factory the served model is cloned through the snapshot codec and
        its ``fit`` is called on the window — hyper-parameters carried by
        the instance survive the clone.
    """

    name = "full"

    def __init__(self, factory: Callable[[], Any] | None = None) -> None:
        self.factory = factory

    def refit(self, current: Any, X_clean: np.ndarray) -> Any:
        candidate = self.factory() if self.factory is not None else clone_model(current)
        if not hasattr(candidate, "fit"):
            raise TypeError(
                f"FullRefit needs a model with fit(); {type(candidate).__name__} "
                "has none (use ContinualRefit or a factory)"
            )
        candidate.fit(X_clean)
        return candidate


class ContinualRefit(RefitPolicy):
    """Update a continual method with the clean window as one experience.

    The served model must expose the continual update path — ``update(X)``
    (see :meth:`repro.continual.base.ContinualMethod.update`) or
    ``fit_experience(X)`` — and is cloned first so the update can be gated
    and rolled back without affecting live scoring.
    """

    name = "continual"

    def refit(self, current: Any, X_clean: np.ndarray) -> Any:
        if not (hasattr(current, "update") or hasattr(current, "fit_experience")):
            raise TypeError(
                f"ContinualRefit requires a continual method with update()/"
                f"fit_experience(); {type(current).__name__} has neither "
                "(use FullRefit for plain detectors)"
            )
        candidate = clone_model(current)
        if hasattr(candidate, "update"):
            candidate.update(X_clean)
        else:
            candidate.fit_experience(X_clean)
        return candidate


class NoRefit(RefitPolicy):
    """Never produce a candidate; the manager falls back to a registry reload."""

    name = "reload"

    def refit(self, current: Any, X_clean: np.ndarray) -> None:
        return None
