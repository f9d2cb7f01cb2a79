"""Static novelty / anomaly detectors used as baselines in the paper.

All detectors follow the same convention: ``fit`` on (assumed mostly normal)
training data, ``score_samples`` returns anomaly scores where **higher means
more anomalous**, and ``predict`` thresholds those scores into 0 (normal) / 1
(attack).
"""

from repro.novelty.base import NoveltyDetector
from repro.novelty.dif import DeepIsolationForest
from repro.novelty.iforest import IsolationForest
from repro.novelty.lof import LocalOutlierFactor
from repro.novelty.mahalanobis import MahalanobisDetector
from repro.novelty.ocsvm import OneClassSVM
from repro.novelty.pca_detector import PCAReconstructionDetector

__all__ = [
    "NoveltyDetector",
    "PCAReconstructionDetector",
    "LocalOutlierFactor",
    "OneClassSVM",
    "IsolationForest",
    "DeepIsolationForest",
    "MahalanobisDetector",
]
