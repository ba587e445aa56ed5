"""Grid feature extraction: exact accumulation, normalization, resizing."""

import numpy as np
import pytest

from repro.features import FEATURE_NAMES, FeatureExtractor, extract_features, resize_map
from repro.features.grids import _rect_accumulate


class TestRectAccumulate:
    def test_matches_naive_loop(self, rng):
        g = 8
        n = 20
        x0 = rng.integers(0, g, n)
        x1 = np.minimum(x0 + rng.integers(0, 4, n), g - 1)
        y0 = rng.integers(0, g, n)
        y1 = np.minimum(y0 + rng.integers(0, 4, n), g - 1)
        values = rng.uniform(0.1, 2.0, n)

        fast = _rect_accumulate(g, x0, x1, y0, y1, values)
        naive = np.zeros((g, g))
        for k in range(n):
            naive[x0[k] : x1[k] + 1, y0[k] : y1[k] + 1] += values[k]
        # Maps are float32 (the float64 pipeline doubled memory traffic
        # for no modelling benefit); compare at float32 precision.
        assert fast.dtype == np.float32
        np.testing.assert_allclose(fast, naive, rtol=1e-6, atol=1e-6)

    def test_single_cell(self):
        out = _rect_accumulate(
            4, np.array([2]), np.array([2]), np.array([1]), np.array([1]),
            np.array([5.0]),
        )
        assert out[2, 1] == 5.0
        assert out.sum() == 5.0

    def test_full_grid(self):
        out = _rect_accumulate(
            3, np.array([0]), np.array([2]), np.array([0]), np.array([2]),
            np.array([1.0]),
        )
        np.testing.assert_allclose(out, np.ones((3, 3)))


class TestResizeMap:
    def test_identity(self, rng):
        data = rng.normal(size=(8, 8))
        np.testing.assert_allclose(resize_map(data, 8, 8), data)

    def test_upsample_constant(self):
        data = np.full((4, 4), 3.0)
        out = resize_map(data, 16, 16)
        np.testing.assert_allclose(out, 3.0)

    def test_downsample_preserves_mean_roughly(self, rng):
        data = rng.uniform(0, 1, size=(32, 32))
        out = resize_map(data, 8, 8)
        assert out.mean() == pytest.approx(data.mean(), abs=0.05)

    def test_shapes(self, rng):
        data = rng.normal(size=(10, 20))
        assert resize_map(data, 7, 13).shape == (7, 13)


class TestFeatureExtraction:
    @pytest.fixture(scope="class")
    def stack(self, tiny_design):
        return FeatureExtractor(grid=16)(tiny_design)

    def test_shape_and_names(self, stack):
        assert stack.shape == (len(FEATURE_NAMES), 16, 16)

    def test_all_maps_finite_nonnegative(self, stack):
        assert np.all(np.isfinite(stack))
        assert np.all(stack >= 0)

    def test_macro_map_bounded_by_one(self, stack):
        assert stack[0].max() <= 1.0

    def test_rudy_is_h_plus_v_density(self, tiny_design):
        stack = FeatureExtractor(grid=16)(tiny_design)
        h, v, rudy = stack[1], stack[2], stack[3]
        # rudy normalization halves the sum of the separately normalized
        # maps (float32 maps: compare at float32 precision)
        np.testing.assert_allclose(rudy, (h + v) / 2.0, rtol=1e-5, atol=1e-6)

    def test_routing_maps_conserve_net_mass(self, tiny_design, rng):
        """Each net spreads a fixed total over its bounding box: ``W``
        horizontal, ``H`` vertical and ``degree`` pin demand, so the map
        sums times their normalizers are exact per-net totals."""
        g = 16
        device = tiny_design.device
        x = rng.uniform(0, device.width, tiny_design.num_instances)
        y = rng.uniform(0, device.height, tiny_design.num_instances)
        stack = FeatureExtractor(grid=g)(tiny_design, x, y)
        h, v, rudy, pin_rudy = (m.sum(dtype=np.float64) for m in stack[1:5])

        bx = np.clip((x / device.width * g).astype(int), 0, g - 1)
        by = np.clip((y / device.height * g).astype(int), 0, g - 1)
        widths = [np.ptp(bx[list(n.pins)]) + 1 for n in tiny_design.nets]
        heights = [np.ptp(by[list(n.pins)]) + 1 for n in tiny_design.nets]
        budget = device.short_capacity * (device.tile_cols / g) * (device.tile_rows / g)
        np.testing.assert_allclose(h * budget, sum(widths), rtol=1e-6)
        np.testing.assert_allclose(v * budget, sum(heights), rtol=1e-6)
        np.testing.assert_allclose(
            rudy * 2 * budget, sum(widths) + sum(heights), rtol=1e-6
        )
        np.testing.assert_allclose(
            pin_rudy * 4 * budget, tiny_design.net_degrees.sum(), rtol=1e-6
        )

    def test_cell_density_tracks_cells(self, tiny_design):
        stack = FeatureExtractor(grid=16)(tiny_design)
        cell = stack[5]
        assert cell.sum() > 0

    def test_explicit_positions_override(self, tiny_design):
        g = 16
        n = tiny_design.num_instances
        x = np.zeros(n)
        y = np.zeros(n)
        stack = FeatureExtractor(grid=g)(tiny_design, x, y)
        # Everything at the origin: all cell density lands in bin (0, 0).
        assert stack[5][0, 0] > 0
        assert stack[5][g - 1, g - 1] == 0

    def test_resized(self, tiny_design):
        out = FeatureExtractor(grid=16).resized(tiny_design, 32)
        assert out.shape == (6, 32, 32)

    def test_convenience_wrapper(self, tiny_design):
        a = extract_features(tiny_design, grid=8)
        b = FeatureExtractor(grid=8)(tiny_design)
        np.testing.assert_allclose(a, b)

    def test_macro_map_marks_macro_positions(self, tiny_design):
        g = 16
        stack = FeatureExtractor(grid=g)(tiny_design)
        device = tiny_design.device
        macros = tiny_design.macro_indices()
        bx = (tiny_design.x[macros] / device.width * g).astype(int).clip(0, g - 1)
        by = (tiny_design.y[macros] / device.height * g).astype(int).clip(0, g - 1)
        assert np.all(stack[0][bx, by] > 0)
