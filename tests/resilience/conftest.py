"""Fixtures for the fault-tolerance suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.train import CongestionDataset, Sample


def make_dataset(seed: int = 0, n_train: int = 8, grid: int = 16) -> CongestionDataset:
    """Learnable toy task: label = quantized RUDY channel."""
    rng = np.random.default_rng(seed)
    dataset = CongestionDataset()
    for _ in range(n_train):
        features = rng.uniform(0, 1, size=(6, grid, grid))
        labels = np.clip((features[3] * 8).astype(np.int64), 0, 7)
        dataset.train.append(Sample(features, labels, "Design_T"))
    dataset.eval = dataset.train[:2]
    return dataset


@pytest.fixture
def tiny_dataset() -> CongestionDataset:
    return make_dataset()
