"""Classification and ranking metrics.

Implements everything the paper's evaluation relies on: F1 score for
thresholded predictions, PR-AUC (chosen over ROC-AUC due to class imbalance),
and the Best-F threshold-selection rule used by CND-IDS.
"""

from repro.metrics.classification import (
    accuracy_score,
    classification_report,
    confusion_matrix,
    f1_score,
    fbeta_score,
    precision_score,
    recall_score,
)
from repro.metrics.ranking import (
    average_precision_score,
    pr_auc_score,
    precision_recall_curve,
    roc_auc_score,
    roc_curve,
)
from repro.metrics.thresholds import best_f_threshold, quantile_threshold

__all__ = [
    "confusion_matrix",
    "accuracy_score",
    "precision_score",
    "recall_score",
    "f1_score",
    "fbeta_score",
    "classification_report",
    "precision_recall_curve",
    "average_precision_score",
    "pr_auc_score",
    "roc_curve",
    "roc_auc_score",
    "best_f_threshold",
    "quantile_threshold",
]
