"""Evaluation metrics of Table I: ACC, R² and NRMS.

Following [6] (which the paper adopts):

* **ACC** — fraction of grid cells classified into the correct
  congestion level.
* **R²** — coefficient of determination of predicted vs. true levels,
  treating levels as a continuous quantity.
* **NRMS** — root mean square error normalized by the level range
  (``num_levels − 1 = 7``), measuring predicted-map quality.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "accuracy",
    "r_squared",
    "nrms",
    "evaluate_predictions",
    "confusion_matrix",
    "per_level_recall",
]

_LEVEL_RANGE = 7.0

# r_squared and nrms reduce in float64 on purpose, even for a float32
# model: squared-error sums over full maps need the headroom, and
# metrics are off the hot path.


def accuracy(pred: np.ndarray, target: np.ndarray) -> float:
    """Fraction of cells with the exact correct level."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float((pred == target).mean())


def r_squared(pred: np.ndarray, target: np.ndarray) -> float:
    """Coefficient of determination (1 − SS_res / SS_tot)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    ss_res = float(((target - pred) ** 2).sum())
    ss_tot = float(((target - target.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def nrms(pred: np.ndarray, target: np.ndarray) -> float:
    """RMSE normalized by the congestion level range (7)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    return float(np.sqrt(((pred - target) ** 2).mean()) / _LEVEL_RANGE)


def evaluate_predictions(pred: np.ndarray, target: np.ndarray) -> dict[str, float]:
    """All three Table-I metrics at once."""
    return {
        "ACC": accuracy(pred, target),
        "R2": r_squared(pred, target),
        "NRMS": nrms(pred, target),
    }


def confusion_matrix(
    pred: np.ndarray, target: np.ndarray, num_classes: int = 8
) -> np.ndarray:
    """``C[i, j]`` = number of cells with true level ``i`` predicted ``j``.

    The paper argues the transformer "improves the difference between
    various congestion levels"; the confusion matrix is how that shows
    up — mass concentrating on the diagonal for the rare high levels.
    """
    pred = np.asarray(pred, dtype=np.int64).ravel()
    target = np.asarray(target, dtype=np.int64).ravel()
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if (
        pred.min(initial=0) < 0
        or target.min(initial=0) < 0
        or pred.max(initial=0) >= num_classes
        or target.max(initial=0) >= num_classes
    ):
        raise ValueError(f"levels outside [0, {num_classes})")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (target, pred), 1)
    return matrix


def per_level_recall(
    pred: np.ndarray, target: np.ndarray, num_classes: int = 8
) -> np.ndarray:
    """Recall per congestion level (NaN for levels absent from target).

    Distinguishing the *penalized* levels (≥ 4) is what drives Eq. 1, so
    per-level recall is the metric that separates "accurate overall"
    from "accurate where it matters".
    """
    matrix = confusion_matrix(pred, target, num_classes)
    support = matrix.sum(axis=1)
    with np.errstate(invalid="ignore"):
        recall = np.diag(matrix) / support
    return np.where(support > 0, recall, np.nan)
