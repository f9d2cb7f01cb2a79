"""Continual-learning substrate: scenarios, metrics, and UCL baselines.

Implements the paper's continual-learning data preparation (Sec. III-A), the
result matrix ``R_ij`` and the derived AVG / FwdTrans / BwdTrans metrics
(Sec. IV-A), and the two unsupervised continual-learning baselines the paper
compares against (ADCN and LwF).
"""

from repro.continual.base import ContinualMethod
from repro.continual.baselines import ADCN, LwF
from repro.continual.metrics import ResultMatrix, continual_metrics
from repro.continual.scenario import ContinualScenario, Experience

__all__ = [
    "Experience",
    "ContinualScenario",
    "ResultMatrix",
    "continual_metrics",
    "ContinualMethod",
    "ADCN",
    "LwF",
]
