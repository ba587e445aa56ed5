"""Analysis utilities: correlation, forward selection, report export."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    correlate_features,
    forward_selection,
    rows_to_csv,
    rows_to_markdown,
)
from repro.features import FEATURE_NAMES


def _correlated_stack(rng, grid=16):
    """Features where channel 3 (RUDY) drives the labels."""
    features = rng.uniform(0, 1, size=(2, 6, grid, grid))
    labels = np.clip((features[:, 3] * 7).round(), 0, 7)
    return features, labels


def test_import_repro_leaves_scipy_stats_unloaded():
    """``spearmanr`` imports scipy.stats on first use, not at import time."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, repro; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


class TestCorrelation:
    def test_names_and_order(self, rng):
        features, labels = _correlated_stack(rng)
        results = correlate_features(features, labels)
        assert [r.name for r in results] == list(FEATURE_NAMES)

    def test_driving_feature_ranks_first(self, rng):
        features, labels = _correlated_stack(rng)
        results = correlate_features(features, labels)
        best = max(results, key=lambda r: abs(r.pearson))
        assert best.name == "rudy"
        assert best.pearson > 0.9

    def test_uncorrelated_features_near_zero(self, rng):
        features, labels = _correlated_stack(rng)
        by_name = {r.name: r for r in correlate_features(features, labels)}
        assert abs(by_name["macro_map"].pearson) < 0.2

    def test_single_sample_accepted(self, rng):
        features, labels = _correlated_stack(rng)
        results = correlate_features(features[0], labels[0])
        assert len(results) == 6

    def test_constant_feature_yields_zero(self, rng):
        features, labels = _correlated_stack(rng)
        features[:, 0] = 0.5
        by_name = {r.name: r for r in correlate_features(features, labels)}
        assert by_name["macro_map"].pearson == 0.0

    def test_batch_mismatch_rejected(self, rng):
        features, labels = _correlated_stack(rng)
        with pytest.raises(ValueError, match="batch"):
            correlate_features(features, labels[:1])

    def test_row_rendering(self, rng):
        features, labels = _correlated_stack(rng)
        row = correlate_features(features, labels)[0].row()
        assert "pearson" in row and "macro_map" in row


class TestForwardSelection:
    def test_picks_driver_first(self, rng):
        features, labels = _correlated_stack(rng)
        ranking = forward_selection(features, labels)
        assert ranking[0][0] == "rudy"
        assert ranking[0][1] > 0.8

    def test_r2_monotone_nondecreasing(self, rng):
        features, labels = _correlated_stack(rng)
        ranking = forward_selection(features, labels)
        r2s = [r2 for _, r2 in ranking]
        assert all(b >= a - 1e-9 for a, b in zip(r2s, r2s[1:]))

    def test_max_features_cap(self, rng):
        features, labels = _correlated_stack(rng)
        ranking = forward_selection(features, labels, max_features=2)
        assert len(ranking) == 2


class TestReports:
    ROWS = [
        {"design": "Design_116", "ACC": 0.885, "S_IR": 5},
        {"design": "Design_120", "ACC": 0.855, "S_IR": 2},
    ]

    def test_csv_roundtrip(self):
        text = rows_to_csv(self.ROWS)
        lines = text.strip().splitlines()
        assert lines[0] == "design,ACC,S_IR"
        assert lines[1].startswith("Design_116,0.885")

    def test_markdown_structure(self):
        text = rows_to_markdown(self.ROWS)
        lines = text.splitlines()
        assert lines[0].startswith("| design | ACC")
        assert lines[1].startswith("| ---")
        assert len(lines) == 4

    def test_empty_rows(self):
        assert rows_to_csv([]) == ""
        assert rows_to_markdown([]) == ""

    def test_inconsistent_columns_rejected(self):
        bad = [{"a": 1}, {"b": 2}]
        with pytest.raises(ValueError, match="columns"):
            rows_to_csv(bad)
        with pytest.raises(ValueError, match="columns"):
            rows_to_markdown(bad)

    def test_float_formatting_in_markdown(self):
        text = rows_to_markdown([{"x": 0.123456}])
        assert "0.123 " in text or "0.123|" in text or "0.123" in text
