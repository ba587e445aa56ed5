"""Training objectives.

The paper's model classifies each grid cell into one of 8 congestion
levels via a softmax head, which corresponds to per-pixel cross-entropy
over NCHW logit maps, reduced to a scalar.  Every registry model,
baselines included, trains with it.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .module import Module
from .tensor import Tensor

__all__ = ["CrossEntropyLoss2d", "one_hot_levels"]


def one_hot_levels(levels: np.ndarray, num_classes: int) -> np.ndarray:
    """Convert an ``(N, H, W)`` integer level map to ``(N, K, H, W)`` one-hot."""
    levels = np.asarray(levels, dtype=np.int64)
    if levels.min() < 0 or levels.max() >= num_classes:
        raise ValueError(
            f"levels outside [0, {num_classes}): "
            f"[{levels.min()}, {levels.max()}]"
        )
    n, h, w = levels.shape
    out = np.zeros((n, num_classes, h, w))
    rows = np.arange(n)[:, None, None]
    hh = np.arange(h)[None, :, None]
    ww = np.arange(w)[None, None, :]
    out[rows, levels, hh, ww] = 1.0
    return out


class CrossEntropyLoss2d(Module):
    """Per-pixel cross-entropy over an ``(N, K, H, W)`` logit map.

    ``weight`` optionally rescales each class, which matters here because
    congestion maps are dominated by level-0 cells; the paper's penalty
    structure (Eq. 1) makes the rare high levels the ones that count.
    """

    def __init__(self, num_classes: int, weight: np.ndarray | None = None):
        super().__init__()
        self.num_classes = num_classes
        if weight is not None:
            weight = np.asarray(weight, dtype=np.float64)
            if weight.shape != (num_classes,):
                raise ValueError(
                    f"weight must have shape ({num_classes},), got {weight.shape}"
                )
        self.weight = weight

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        """``logits``: (N, K, H, W); ``targets``: integer (N, H, W) levels."""
        n, k, h, w = logits.shape
        if k != self.num_classes:
            raise ValueError(f"expected {self.num_classes} classes, got {k}")
        log_probs = F.log_softmax(logits, axis=1)
        target_onehot = one_hot_levels(targets, k)
        if self.weight is not None:
            class_w = self.weight.reshape(1, k, 1, 1)
            target_onehot = target_onehot * class_w
            # A batch whose targets all land on zero-weight classes would
            # otherwise divide by zero and poison every gradient with NaN
            # (REPRO102); such a batch carries no signal, so clamp the
            # normalizer and let the loss collapse to 0 instead.
            norm = max(float(target_onehot.sum()), np.finfo(np.float64).tiny)
        else:
            norm = n * h * w
        picked = log_probs * Tensor(target_onehot)
        return -picked.sum() * (1.0 / norm)
