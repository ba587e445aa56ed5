"""Dataset generation, training loop, and the Table-I metrics."""

from .dataset import (
    CongestionDataset,
    DatasetConfig,
    Sample,
    generate_samples,
    rotate_sample,
)
from .loop import TrainConfig, Trainer, TrainResult
from .metrics import (
    accuracy,
    confusion_matrix,
    evaluate_predictions,
    nrms,
    per_level_recall,
    r_squared,
)
from .schedule import SCHEDULES, lr_at_epoch

__all__ = [
    "Sample",
    "DatasetConfig",
    "generate_samples",
    "rotate_sample",
    "CongestionDataset",
    "TrainConfig",
    "TrainResult",
    "Trainer",
    "accuracy",
    "r_squared",
    "nrms",
    "evaluate_predictions",
    "confusion_matrix",
    "per_level_recall",
    "lr_at_epoch",
    "SCHEDULES",
]
