"""Shared interface of all congestion prediction models.

Every model maps a ``(N, in_channels, H, W)`` feature batch to
``(N, 8, H, W)`` per-level logits; the helpers here turn logits into the
outputs the rest of the system consumes (hard level maps for metrics,
expected real-valued levels for Eq. 11 inflation).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor

__all__ = ["NUM_CLASSES", "CongestionModel"]

NUM_CLASSES = 8


class CongestionModel(nn.Module):
    """Base class: logits-producing module with prediction helpers."""

    num_classes: int = NUM_CLASSES

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Softmax level probabilities, ``(N, 8, H, W)``."""
        self.eval()
        with nn.no_grad():
            logits = self(Tensor(features))
            return F.softmax(logits, axis=1).data

    def predict_levels(self, features: np.ndarray) -> np.ndarray:
        """Hard level map ``(N, H, W)`` (integer levels 0–7)."""
        return self.predict_proba(features).argmax(axis=1)

    def predict_expected(self, features: np.ndarray) -> np.ndarray:
        """Probability-weighted level map ``(N, H, W)`` (``Y_out ∈ R_+``)."""
        proba = self.predict_proba(features)
        levels = np.arange(self.num_classes).reshape(1, -1, 1, 1)
        return (proba * levels).sum(axis=1)
