"""Shadow evaluation: a candidate must agree with live traffic before it swaps.

The quality gate (:mod:`repro.serve.lifecycle.gate`) judges a refit candidate
on the *clean window it was trained from* — a single self-referential check.
Shadow evaluation closes the remaining gap: after the gate passes, the
candidate is scored **alongside** the live model on every subsequent stream
batch for a configured number of rounds, and only earns the swap when the two
models *agree* on live traffic: disagreement between live and candidate is
what blocks a promotion, not a one-shot self-quantile.

Both agreement statistics are standardized (scale-free), so one threshold
works across detector families whose raw score ranges differ by orders of
magnitude:

* **alert-decision overlap** — per batch, the live model flags ``k`` samples
  with the active serving threshold; the candidate's *top-k by score* is
  compared against that set (rate-matched, so a candidate with a differently
  calibrated threshold is judged on *which* samples it ranks anomalous, not
  on its absolute scale).  Aggregated as
  ``sum(|live ∩ candidate-top-k|) / sum(k)`` over the trial.  Batches where
  the live model flags nothing (``k == 0``) or everything (``k == n``) carry
  no rate-matched information — any candidate's top-0/top-n trivially
  matches — and are excluded from the statistic.
* **score-rank correlation** — Spearman correlation between live and
  candidate scores on each shared batch, sample-weighted across rounds
  (a batch needs at least two rows to rank).

A trial that sees fewer than ``min_samples`` rows — or whose batches were
all too degenerate to measure *either* statistic (single-row batches, or
no/all alerts throughout) — is rejected outright: thin evidence must never
promote a model.

The lifecycle manager starts a trial when a gate-passed candidate is
produced (:meth:`~repro.serve.lifecycle.manager.LifecycleManager.produce_candidate`
with a configured :class:`ShadowEvaluator`), feeds it one observation per
scored batch, and resolves it into a ``shadow_pass`` (publish + swap) or
``shadow_reject`` (candidate discarded, current model keeps serving)
:class:`~repro.serve.lifecycle.manager.LifecycleEvent`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.serve.telemetry.log import get_logger, log_event

__all__ = ["ShadowEvaluator", "ShadowTrial", "ShadowVerdict", "describe_agreement"]

_logger = get_logger("shadow")


def describe_agreement(
    agreement: float | None, correlation: float | None
) -> str:
    """``agreement 87%, rank corr 0.89`` with ``n/a`` for unmeasured stats.

    Shared by every surface that prints a verdict (CLI event/history lines,
    the example) so the display stays in one place.
    """
    overlap = f"{agreement:.0%}" if agreement is not None else "n/a"
    corr = f"{correlation:.2f}" if correlation is not None else "n/a"
    return f"agreement {overlap}, rank corr {corr}"


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation via ordinal ranks (stable sort).

    Scores are continuous floats, so ties are measure-zero; ordinal ranks keep
    the denominator strictly positive for any ``n >= 2`` (ranks are a
    permutation of ``0..n-1``), which means the statistic is always finite —
    no NaN can leak into a verdict even for a constant scorer.
    """
    ranks_a = np.empty(a.size)
    ranks_a[np.argsort(a, kind="stable")] = np.arange(a.size)
    ranks_b = np.empty(b.size)
    ranks_b[np.argsort(b, kind="stable")] = np.arange(b.size)
    ranks_a -= ranks_a.mean()
    ranks_b -= ranks_b.mean()
    denom = math.sqrt(float((ranks_a * ranks_a).sum() * (ranks_b * ranks_b).sum()))
    return float((ranks_a * ranks_b).sum() / denom)


@dataclass(frozen=True)
class ShadowVerdict:
    """Outcome of a completed shadow trial.

    Either statistic is ``None`` when the trial could not measure it —
    ``rank_correlation`` needs at least one batch with two or more rows,
    ``alert_agreement`` needs at least one live alert.  An unmeasurable
    statistic defers to the other; a trial where *neither* is measurable is
    rejected (a verdict needs evidence).
    """

    passed: bool
    n_rounds: int
    n_samples: int
    alert_agreement: float | None
    rank_correlation: float | None
    #: Every live alert raised during the trial — including the ones from
    #: vacuous (no-alert / all-alert) batches that the overlap statistic
    #: excludes — so an audited reject is never read as "live was quiet".
    n_live_alerts: int
    reason: str | None = None

    def describe(self) -> str:
        """One-line human-readable agreement summary."""
        return describe_agreement(self.alert_agreement, self.rank_correlation)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "n_rounds": self.n_rounds,
            "n_samples": self.n_samples,
            "alert_agreement": self.alert_agreement,
            "rank_correlation": self.rank_correlation,
            "n_live_alerts": self.n_live_alerts,
            "reason": self.reason,
        }


@dataclass
class ShadowEvaluator:
    """Configuration for shadow trials (one instance gates every candidate).

    Parameters
    ----------
    rounds:
        Number of scored stream batches the candidate shadows before the
        verdict.
    min_agreement:
        Minimum rate-matched alert-decision overlap (see module docstring),
        in ``(0, 1]``.  When the live model raised no alert during the whole
        trial the overlap is unmeasurable and the rank correlation decides
        alone (and vice versa — see :class:`ShadowVerdict`).
    min_rank_correlation:
        Minimum sample-weighted Spearman correlation between live and
        candidate scores, in ``[-1, 1]``.
    min_samples:
        Trials that observed fewer rows than this are rejected — a verdict
        needs evidence, and an idle stream must not promote a model.
    """

    rounds: int = 5
    min_agreement: float = 0.6
    min_rank_correlation: float = 0.5
    min_samples: int = 64

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if not 0.0 < self.min_agreement <= 1.0:
            raise ValueError("min_agreement must be in (0, 1]")
        if not -1.0 <= self.min_rank_correlation <= 1.0:
            raise ValueError("min_rank_correlation must be in [-1, 1]")
        if self.min_samples < 2:
            raise ValueError("min_samples must be at least 2")

    def begin(self, candidate: Any) -> "ShadowTrial":
        """Open a trial for ``candidate`` under this configuration."""
        log_event(
            logging.INFO,
            "shadow_trial_started",
            logger_=_logger,
            candidate=type(candidate).__name__,
            rounds=self.rounds,
            min_samples=self.min_samples,
        )
        return ShadowTrial(candidate, self)


class ShadowTrial:
    """Running agreement statistics for one candidate under shadow.

    The trial only keeps O(1) accumulators — per observed batch it folds in
    the Spearman correlation (sample-weighted) and the rate-matched alert
    overlap, never the score arrays themselves, so shadowing adds bounded
    memory on top of the double-scoring cost.

    ``origin`` is set by the lifecycle manager to the ``shadow_start``
    :class:`~repro.serve.lifecycle.manager.LifecycleEvent` so the final
    pass/reject event inherits the refit context (policy, window size, gate).
    """

    def __init__(self, candidate: Any, config: ShadowEvaluator) -> None:
        self.candidate = candidate
        self.config = config
        self.origin: Any = None
        self.n_rounds_ = 0
        self.n_samples_ = 0
        self._corr_weighted = 0.0
        self._corr_weight = 0
        self._alert_intersection = 0
        self._alert_count = 0  # overlap denominator: rate-matched batches only
        self._live_alerts_total = 0  # every live alert, for the audit record

    @property
    def complete(self) -> bool:
        """Whether the configured number of rounds has been observed."""
        return self.n_rounds_ >= self.config.rounds

    def observe(
        self,
        live_scores: np.ndarray,
        live_threshold: float,
        candidate_scores: np.ndarray,
    ) -> None:
        """Fold one double-scored batch into the agreement statistics.

        Empty batches are not rounds (there is nothing to agree on), and a
        completed trial ignores further observations: the verdict is fixed
        once the round budget is spent.
        """
        if self.complete:
            return
        live = np.asarray(live_scores, dtype=np.float64).ravel()
        cand = np.asarray(candidate_scores, dtype=np.float64).ravel()
        if live.shape[0] != cand.shape[0]:
            raise ValueError(
                f"{cand.shape[0]} candidate scores for {live.shape[0]} live scores"
            )
        n = int(live.shape[0])
        if n == 0:
            return
        self.n_rounds_ += 1
        self.n_samples_ += n
        if n >= 2:
            self._corr_weighted += _spearman(live, cand) * n
            self._corr_weight += n
        if live_threshold is not None and not math.isnan(live_threshold):
            flagged = np.flatnonzero(live > live_threshold)
            k = int(flagged.size)
            self._live_alerts_total += k
            # k == 0 and k == n are vacuous under rate-matching (any
            # candidate's top-0/top-n trivially equals the live set); only
            # batches with a real decision boundary count.
            if 0 < k < n:
                top_k = np.argpartition(cand, n - k)[n - k :]
                self._alert_intersection += int(
                    np.intersect1d(flagged, top_k, assume_unique=True).size
                )
                self._alert_count += k

    def verdict(self) -> ShadowVerdict:
        """Judge the accumulated agreement against the configured minima.

        A statistic the trial could not measure is not fabricated: a stream
        of single-row batches yields no per-batch rank correlation, and a
        trial without a single live alert yields no overlap — each case
        defers to the other statistic rather than injecting a failing (or
        vacuously passing) number.  When *neither* is measurable the trial
        is rejected outright.
        """
        config = self.config
        agreement = (
            self._alert_intersection / self._alert_count
            if self._alert_count
            else None  # the live model never alerted: nothing to overlap
        )
        correlation = (
            self._corr_weighted / self._corr_weight
            if self._corr_weight
            else None  # no batch carried >= 2 rows: ranks are undefined
        )
        reasons = []
        if self.n_samples_ < config.min_samples:
            reasons.append(
                f"shadow saw only {self.n_samples_} samples "
                f"(min_samples={config.min_samples})"
            )
        if agreement is None and correlation is None:
            reasons.append(
                "no measurable agreement statistic (no batch with a real "
                "alert boundary and none with >= 2 rows)"
            )
        if agreement is not None and agreement < config.min_agreement:
            reasons.append(
                f"alert-decision overlap {agreement:.1%} < "
                f"{config.min_agreement:.1%}"
            )
        if correlation is not None and correlation < config.min_rank_correlation:
            reasons.append(
                f"score-rank correlation {correlation:.2f} < "
                f"{config.min_rank_correlation:.2f}"
            )
        verdict = ShadowVerdict(
            passed=not reasons,
            n_rounds=self.n_rounds_,
            n_samples=self.n_samples_,
            alert_agreement=None if agreement is None else float(agreement),
            rank_correlation=None if correlation is None else float(correlation),
            n_live_alerts=self._live_alerts_total,
            reason="; ".join(reasons) or None,
        )
        log_event(
            logging.INFO,
            "shadow_verdict",
            logger_=_logger,
            passed=verdict.passed,
            n_rounds=verdict.n_rounds,
            n_samples=verdict.n_samples,
            agreement=verdict.describe(),
            reason=verdict.reason,
        )
        return verdict
