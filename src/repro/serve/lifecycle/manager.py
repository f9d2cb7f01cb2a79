"""The lifecycle manager: buffer + refit policy + quality gate + registry.

:class:`LifecycleManager` owns the full *drift → refit → gate → publish →
swap* loop during serving:

1. every scored batch feeds the clean-window buffer
   (:meth:`LifecycleManager.observe_batch`),
2. when the service's drift monitor fires, :meth:`handle_drift` asks the
   refit policy for a candidate trained on the buffered window,
3. the candidate must pass the quality gate (score-distribution sanity on
   the same window) or it is dropped,
4. an accepted candidate is published to the model registry as a new
   version (when a registry and model name are configured) and hot-swapped
   into the service, bumping the service's model epoch.

When the policy declines (``NoRefit``) or the window is too small, the
manager falls back to reloading the registry's pinned or latest version, so
a deployment can mix operator-pushed models with online refits.
``LifecycleManager(NoRefit(), registry=..., model_name=...)`` is the pure
reload on drift (``repro serve --refit reload``); unlike a blind
reload it declines to re-swap the version that is already serving.

Every decision is recorded as a structured :class:`LifecycleEvent` (kept on
the manager and emitted to optional sinks), so an operator can audit exactly
why a model was or was not replaced.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from repro.serve.drift import DriftReport
from repro.serve.faults import call_with_retry, emit_resilient, wrap_sinks
from repro.serve.lifecycle.buffer import WindowBuffer
from repro.serve.lifecycle.gate import GateResult, QualityGate
from repro.serve.lifecycle.policy import RefitPolicy
from repro.serve.telemetry.tracing import trace_span
from repro.utils.timing import Timer

__all__ = ["LifecycleEvent", "LifecycleManager"]


@dataclass(frozen=True)
class LifecycleEvent:
    """One lifecycle decision: what happened after a drift signal and why.

    ``action`` is one of ``"refit"`` (a candidate passed the gate and swapped
    immediately), ``"reload"`` (fallback to the registry's published
    version), ``"rejected"`` (the candidate failed the gate; the current model
    keeps serving) or ``"skipped"`` (nothing to do — window too small and no
    newer registry version to fall back to).  ``swapped`` tells whether the
    served model actually changed, and ``epoch`` is the serving epoch after
    the decision.
    """

    action: str
    policy: str
    swapped: bool = False
    epoch: int = 0
    n_window_rows: int = 0
    published_version: int | None = None
    refit_latency_s: float = 0.0
    gate: GateResult | None = None
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "type": "lifecycle",
            "action": self.action,
            "policy": self.policy,
            "swapped": self.swapped,
            "epoch": self.epoch,
            "n_window_rows": self.n_window_rows,
            "published_version": self.published_version,
            "refit_latency_s": self.refit_latency_s,
            "gate": self.gate.to_dict() if self.gate is not None else None,
            "reason": self.reason,
        }


class LifecycleManager:
    """Coordinate online refit, quality gating, publishing and hot-swaps.

    Parameters
    ----------
    policy:
        The :class:`~repro.serve.lifecycle.policy.RefitPolicy` producing
        candidates from the clean window.
    buffer:
        Clean-window buffer; a fresh 4096-row
        :class:`~repro.serve.lifecycle.buffer.WindowBuffer` when omitted.
    gate:
        Candidate quality gate; defaults to
        :class:`~repro.serve.lifecycle.gate.QualityGate`.
    registry, model_name:
        When both are given, accepted candidates are published to
        ``registry`` under ``model_name`` (auto-increment version) and the
        reload fallback resolves the same name.
    min_refit_rows:
        Below this many buffered rows a refit is not attempted (the window
        would under-determine the model); the manager reloads from the
        registry instead, when one is configured.
    serving_version:
        Registry version of the model currently being served, when known
        (the CLI passes the version it published or loaded).  The reload
        fallback declines when the registry resolves to this same version —
        re-"swapping" the byte-identical model would only reset the drift
        monitor and silently absorb a real drift episode.  Kept up to date
        as the manager publishes refits and reloads newer versions.
    sinks:
        Optional :mod:`repro.serve.sinks` instances receiving every
        :class:`LifecycleEvent`.
    """

    def __init__(
        self,
        policy: RefitPolicy,
        *,
        buffer: WindowBuffer | None = None,
        gate: QualityGate | None = None,
        registry: Any = None,
        model_name: str | None = None,
        min_refit_rows: int = 256,
        serving_version: int | None = None,
        sinks: Sequence[Any] = (),
    ) -> None:
        if not isinstance(policy, RefitPolicy):
            raise TypeError(
                f"policy must be a RefitPolicy, got {type(policy).__name__}"
            )
        if min_refit_rows < 2:
            raise ValueError("min_refit_rows must be at least 2")
        if registry is not None and model_name is None:
            raise ValueError("a registry requires a model_name to publish/reload under")
        self.policy = policy
        self.buffer = buffer if buffer is not None else WindowBuffer()
        self.gate = gate if gate is not None else QualityGate()
        self.registry = registry
        self.model_name = model_name
        self.min_refit_rows = min_refit_rows
        self.serving_version = serving_version
        self.sinks = wrap_sinks(sinks)
        self.events: list[LifecycleEvent] = []
        self.n_refits_ = 0
        self.n_reloads_ = 0
        self.n_rejected_ = 0
        self.n_skipped_ = 0
        #: Telemetry channel for the refit/gate/publish spans.  Left unset
        #: here: the ``DetectionService`` that adopts this manager wires its
        #: own registry/tracer in on construction; unwired, the spans are
        #: no-ops.
        self.telemetry = None
        self.tracer = None

    # -- stream observation ------------------------------------------------------
    def observe_batch(
        self,
        X: np.ndarray,
        scores: np.ndarray,
        threshold: float,
        drift: DriftReport | None,
    ) -> int:
        """Feed one scored batch's clean rows into the window buffer.

        The batch that *fired* the drift monitor is excluded — it is the
        acute anomaly that triggered detection.  Batches in the cooldown
        that follows are admitted (below the active threshold, as always):
        under a persistent covariate shift every subsequent batch sits in a
        cooldown-or-refire episode, so excluding them would starve the refit
        window forever and deadlock the lifecycle with a permanently stale
        model.  The contamination risk of admitting them is bounded by the
        below-threshold filter (a rolling threshold tracks typical recent
        traffic), the bounded episode the cooldown imposes between refires,
        and the quality gate every candidate must pass.

        Returns the number of rows buffered.
        """
        if scores is None or np.size(scores) == 0:
            return 0
        if drift is not None and drift.drifted:
            return 0
        return self.buffer.add_clean(X, scores, threshold)

    # -- candidate production ----------------------------------------------------
    def _reload_fallback(self) -> tuple[Any | None, str | None]:
        """Resolve the registry fallback; ``(model, None)`` or ``(None, why)``.

        Declines when the registry resolves to :attr:`serving_version`:
        swapping in the byte-identical model would reset the drift monitor
        for nothing and silently absorb the drift signal.
        """
        if self.registry is None or self.model_name is None:
            return None, "no registry configured"
        try:
            info = self.registry.resolve(self.model_name)
        except KeyError:
            return None, f"registry has no published version of {self.model_name!r}"
        if self.serving_version is not None and info.version == self.serving_version:
            return None, (
                f"registry resolves to v{info.version}, which is already "
                "serving (nothing newer to reload)"
            )
        self.serving_version = info.version
        return self.registry.load(self.model_name, info.version), None

    def produce_candidate(self, current: Any) -> tuple[Any | None, LifecycleEvent]:
        """Run refit + gate (+ publish) and return ``(candidate, event)``.

        The caller is responsible for the actual swap — the service swaps
        itself in :meth:`handle_drift`.  ``candidate`` is
        ``None`` when the current model should keep serving; the event's
        ``swapped``/``epoch`` fields are filled in by the caller via
        :meth:`record`.
        """
        window = self.buffer.values()
        n_rows = int(window.shape[0])
        if n_rows < self.min_refit_rows:
            fallback, declined = self._reload_fallback()
            reason = (
                f"clean window holds {n_rows} rows, below "
                f"min_refit_rows={self.min_refit_rows}"
            )
            if declined is not None:
                reason = f"{reason}; {declined}"
            action = "reload" if fallback is not None else "skipped"
            return fallback, LifecycleEvent(
                action=action, policy=self.policy.name,
                n_window_rows=n_rows, reason=reason,
            )
        timer = Timer()
        with timer, trace_span(
            "refit", metrics=self.telemetry, tracer=self.tracer, rows=n_rows
        ):
            candidate = self.policy.refit(current, window)
        if candidate is None:
            fallback, declined = self._reload_fallback()
            reason = "policy produced no candidate"
            if declined is not None:
                reason = f"{reason}; {declined}"
            action = "reload" if fallback is not None else "skipped"
            return fallback, LifecycleEvent(
                action=action, policy=self.policy.name, n_window_rows=n_rows,
                refit_latency_s=timer.total,
                reason=reason,
            )
        with trace_span(
            "gate", metrics=self.telemetry, tracer=self.tracer, rows=n_rows
        ):
            gate_result = self.gate.evaluate(candidate, window)
        if not gate_result.passed:
            # A gate failure keeps the *current* model serving: reloading the
            # registry version here would mask a bad refit behind churn.
            return None, LifecycleEvent(
                action="rejected", policy=self.policy.name, n_window_rows=n_rows,
                refit_latency_s=timer.total, gate=gate_result,
                reason=gate_result.reason,
            )
        version = self._publish_candidate(candidate, n_rows, gate_result)
        return candidate, LifecycleEvent(
            action="refit", policy=self.policy.name, n_window_rows=n_rows,
            published_version=version, refit_latency_s=timer.total,
            gate=gate_result,
        )

    def _publish_candidate(
        self,
        candidate: Any,
        n_rows: int,
        gate_result: GateResult,
    ) -> int | None:
        """Publish an accepted candidate to the registry, when configured."""
        if self.registry is None or not self.model_name:
            return None
        lifecycle_meta = {
            "policy": self.policy.name,
            "n_window_rows": n_rows,
            "gate": gate_result.stats,
        }
        with trace_span(
            "registry_publish", metrics=self.telemetry, tracer=self.tracer
        ):
            info = self.registry.publish(
                candidate, self.model_name, metadata={"lifecycle": lifecycle_meta}
            )
        self.serving_version = info.version
        return info.version

    # -- bookkeeping -------------------------------------------------------------
    def record(self, event: LifecycleEvent) -> LifecycleEvent:
        """Append ``event``, update counters, persist lineage, emit to sinks.

        With a registry and model name configured, every event is also
        appended to the model's ``history.jsonl``
        (:meth:`repro.serve.registry.ModelRegistry.append_history`) so the
        swap lineage survives the serving process and can be audited after a
        restart (``repro registry history NAME``).
        """
        self.events.append(event)
        counter = {
            "refit": "n_refits_",
            "reload": "n_reloads_",
            "rejected": "n_rejected_",
            "skipped": "n_skipped_",
        }.get(event.action)
        if counter is not None:
            setattr(self, counter, getattr(self, counter) + 1)
        if self.registry is not None and self.model_name is not None:
            append = getattr(self.registry, "append_history", None)
            if append is not None:
                # Lineage is an audit trail, not the serving path: a full
                # disk must not turn a recorded decision into a crashed
                # stream.  Transient I/O errors are retried; a persistent
                # failure is warned about and the in-memory event kept.
                try:
                    call_with_retry(
                        lambda: append(self.model_name, event.to_dict())
                    )
                except OSError as exc:
                    warnings.warn(
                        f"failed to persist lifecycle lineage for "
                        f"{self.model_name!r}: {exc}; the event is kept "
                        "in memory only",
                        UserWarning,
                        stacklevel=2,
                    )
        emit_resilient(self.sinks, event)
        return event

    # -- sequential swap ---------------------------------------------------------
    def handle_drift(self, service: Any, report: DriftReport) -> LifecycleEvent:
        """Full loop for a sequential service: refit, gate, publish, swap.

        ``service`` must expose ``detector``, ``reload_detector`` and
        ``epoch_`` (duck-typed: :class:`~repro.serve.service.DetectionService`).

        Only a *refit* swap rebootstraps the drift monitor's feature
        reference: the candidate was trained on the post-drift window, so
        the shifted traffic is its normal.  A fallback *reload* may be a
        stale operator-published model — the feature reference is kept so a
        persistent shift keeps re-firing (see
        :meth:`repro.serve.service.DetectionService.reload_detector`).
        """
        candidate, event = self.produce_candidate(service.detector)
        if candidate is not None:
            service.reload_detector(candidate, rebootstrap=event.action == "refit")
            event = replace(event, swapped=True, epoch=service.epoch_)
        else:
            event = replace(event, epoch=getattr(service, "epoch_", 0))
        return self.record(event)
