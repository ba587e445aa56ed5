"""Feature–congestion correlation analysis (Section III-B's motivation).

The paper selects its six grid features because they are "strongly
correlated with congestion".  This module quantifies that claim on our
substrate: per-feature Pearson and Spearman correlation against the
routed congestion level map, plus a simple greedy forward-selection
ranking that shows how much each feature adds on top of the others.

Used by ``examples/feature_analysis.py`` and the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import FEATURE_NAMES

__all__ = ["FeatureCorrelation", "correlate_features", "forward_selection"]


@dataclass(frozen=True)
class FeatureCorrelation:
    """Correlation of one feature map with the congestion labels."""

    name: str
    pearson: float
    spearman: float

    def row(self) -> str:
        return (
            f"{self.name:<16} pearson={self.pearson:+.3f} "
            f"spearman={self.spearman:+.3f}"
        )


def correlate_features(
    features: np.ndarray, labels: np.ndarray
) -> list[FeatureCorrelation]:
    """Per-feature correlation against labels.

    Parameters
    ----------
    features:
        ``(N, 6, H, W)`` or ``(6, H, W)`` feature stacks.
    labels:
        Matching ``(N, H, W)`` or ``(H, W)`` congestion level maps.
    """
    # Imported here: scipy.stats costs ~0.6 s and ~45 MB at import time,
    # and nothing else in the package needs it.
    from scipy import stats

    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim == 3:
        features = features[None]
        labels = labels[None]
    if features.shape[0] != labels.shape[0]:
        raise ValueError(
            f"batch mismatch: {features.shape[0]} feature stacks vs "
            f"{labels.shape[0]} label maps"
        )
    flat_labels = labels.reshape(-1)
    results = []
    for idx, name in enumerate(FEATURE_NAMES):
        flat = features[:, idx].reshape(-1)
        if np.allclose(flat.std(), 0.0) or np.allclose(flat_labels.std(), 0.0):
            results.append(FeatureCorrelation(name, 0.0, 0.0))
            continue
        pearson = float(np.corrcoef(flat, flat_labels)[0, 1])
        spearman = float(stats.spearmanr(flat, flat_labels).statistic)
        results.append(FeatureCorrelation(name, pearson, spearman))
    return results


def forward_selection(
    features: np.ndarray, labels: np.ndarray, max_features: int | None = None
) -> list[tuple[str, float]]:
    """Greedy forward selection by linear-fit R².

    Repeatedly adds the feature that most improves a least-squares fit
    of the labels, returning ``[(feature_name, cumulative_r2), ...]`` —
    a cheap proxy for "which features carry independent signal".
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim == 3:
        features = features[None]
        labels = labels[None]
    n_feat = features.shape[1]
    x = features.transpose(0, 2, 3, 1).reshape(-1, n_feat)
    y = labels.reshape(-1)
    max_features = max_features or n_feat

    def fit_r2(cols: list[int]) -> float:
        design = np.column_stack([x[:, cols], np.ones(len(y))])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        pred = design @ coef
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        if ss_tot == 0.0:
            return 1.0 if ss_res == 0.0 else 0.0
        return 1.0 - ss_res / ss_tot

    chosen: list[int] = []
    ranking: list[tuple[str, float]] = []
    remaining = list(range(n_feat))
    for _ in range(max_features):
        best_idx, best_r2 = None, -np.inf
        for idx in remaining:
            r2 = fit_r2(chosen + [idx])
            if r2 > best_r2:
                best_idx, best_r2 = idx, r2
        chosen.append(best_idx)
        remaining.remove(best_idx)
        ranking.append((FEATURE_NAMES[best_idx], best_r2))
    return ranking
