"""Instance inflation, Eqs. 11-13."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import (
    ElectrostaticSystem,
    InflationConfig,
    inflate_all_fields,
    inflate_field,
    lookup_levels,
)


@pytest.fixture
def system(fresh_tiny_design):
    return ElectrostaticSystem(fresh_tiny_design, bins=16)


def _uniform_levels(value: float, grid: int = 16) -> np.ndarray:
    return np.full((grid, grid), value)


class TestLookupLevels:
    def test_maps_positions_to_grid(self, system):
        design = system.design
        level_map = np.zeros((16, 16))
        level_map[0, 0] = 7.0
        members = np.array([0])
        x = np.array([0.1] + [0.0] * (design.num_instances - 1))
        y = np.array([0.1] + [0.0] * (design.num_instances - 1))
        levels = lookup_levels(level_map, design, x, y, members)
        assert levels[0] == 7.0

    def test_clips_out_of_range(self, system):
        design = system.design
        level_map = np.zeros((16, 16))
        level_map[15, 15] = 5.0
        members = np.array([0])
        x = np.full(design.num_instances, 1e9)
        y = np.full(design.num_instances, 1e9)
        assert lookup_levels(level_map, design, x, y, members)[0] == 5.0


class TestEq11:
    def test_no_inflation_at_or_below_level_3(self, system):
        x, y = system.design.x, system.design.y
        base = system.fields["CLB"].areas.copy()
        stats = inflate_field(system, "CLB", _uniform_levels(3.0), x, y)
        np.testing.assert_allclose(system.fields["CLB"].areas, base)
        assert stats["inflated"] == 0

    def test_inflation_factor_formula(self, system):
        """At level Y the factor is min(max(1, Y-2)^2.5, eps)."""
        x, y = system.design.x, system.design.y
        field = system.fields["URAM"]  # tiny field -> tau likely 1
        base = field.areas.copy()
        config = InflationConfig(epsilon=100.0)
        stats = inflate_field(system, "URAM", _uniform_levels(4.0), x, y, config)
        expected_factor = (4.0 - 2.0) ** 2.5  # = 5.657
        if stats["tau"] == pytest.approx(1.0):
            np.testing.assert_allclose(field.areas, base * expected_factor)

    def test_epsilon_caps_inflation(self, system):
        x, y = system.design.x, system.design.y
        field = system.fields["URAM"]
        base = field.areas.copy()
        config = InflationConfig(epsilon=2.0)
        stats = inflate_field(system, "URAM", _uniform_levels(7.0), x, y, config)
        if stats["tau"] == pytest.approx(1.0):
            np.testing.assert_allclose(field.areas, 2.0 * base)

    def test_fractional_levels_between_3_and_4_inflate(self, system):
        x, y = system.design.x, system.design.y
        field = system.fields["URAM"]
        base = field.areas.copy()
        inflate_field(system, "URAM", _uniform_levels(3.5), x, y)
        assert np.all(field.areas > base)


class TestEq12Eq13:
    def test_tau_caps_total_area_at_capacity(self, system):
        x, y = system.design.x, system.design.y
        field = system.fields["DSP"]  # 90% utilized -> little headroom
        config = InflationConfig(epsilon=100.0)
        stats = inflate_field(system, "DSP", _uniform_levels(7.0), x, y, config)
        assert stats["tau"] < 1.0
        assert field.total_area <= field.total_capacity + 1e-6

    def test_tau_one_when_headroom(self, system):
        x, y = system.design.x, system.design.y
        stats = inflate_field(
            system, "URAM", _uniform_levels(4.0), x, y, InflationConfig()
        )
        # URAM is ~10% utilized; modest inflation fits entirely.
        assert stats["tau"] == pytest.approx(1.0)

    def test_area_added_consistent(self, system):
        x, y = system.design.x, system.design.y
        field = system.fields["CLB"]
        before = field.total_area
        stats = inflate_field(system, "CLB", _uniform_levels(5.0), x, y)
        assert field.total_area == pytest.approx(before + stats["area_added"])


class TestInflateAll:
    def test_all_fields_reported(self, system):
        x, y = system.design.x, system.design.y
        stats = inflate_all_fields(system, _uniform_levels(4.5), x, y)
        assert set(stats) == set(system.fields)
        for entry in stats.values():
            assert {"inflated", "area_added", "tau"} <= set(entry)

    def test_spatially_selective(self, system):
        """Only instances inside hot grids inflate."""
        design = system.design
        x = design.x.copy()
        y = design.y.copy()
        field = system.fields["CLB"]
        # Left half hot, right half cold; move half the members each side.
        half = len(field.members) // 2
        x[field.members[:half]] = 2.0
        x[field.members[half:]] = 14.0
        level_map = np.zeros((16, 16))
        level_map[:8, :] = 6.0
        base = field.areas.copy()
        inflate_field(system, "CLB", level_map, x, y)
        assert np.all(field.areas[:half] > base[:half])
        np.testing.assert_allclose(field.areas[half:], base[half:])


class TestInvariants:
    """Eqs. 11-13 invariants over arbitrary level maps and areas."""

    @pytest.fixture(scope="class")
    def shared_system(self, tiny_design):
        # Each example overwrites every field's areas before inflating,
        # so one system serves all examples.
        return ElectrostaticSystem(tiny_design, bins=16)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), fill=st.floats(0.1, 1.5))
    def test_inflation_invariants(self, shared_system, seed, fill):
        rng = np.random.default_rng(seed)
        system = shared_system
        design = system.design
        grid = int(rng.integers(2, 17))
        # Integer and fractional levels on either side of the threshold.
        level_map = np.where(
            rng.random((grid, grid)) < 0.5,
            rng.integers(0, 8, (grid, grid)),
            rng.uniform(0.0, 7.0, (grid, grid)),
        )
        x = rng.uniform(0, design.device.width, design.num_instances)
        y = rng.uniform(0, design.device.height, design.num_instances)
        config = InflationConfig()
        before = {}
        for name, field in system.fields.items():
            areas = rng.uniform(0.1, 2.0, field.members.size)
            # ``fill`` spans fields with headroom and fields already full.
            field.areas = areas * (fill * field.total_capacity / areas.sum())
            before[name] = field.areas.copy()

        stats = inflate_all_fields(system, level_map, x, y, config)

        for name, field in system.fields.items():
            old = before[name]
            levels = lookup_levels(level_map, design, x, y, field.members)
            target = old * np.minimum(
                np.maximum(1.0, levels - 2.0) ** config.exponent, config.epsilon
            )
            assert 0.0 <= stats[name]["tau"] <= 1.0
            assert np.all(field.areas >= old)
            cold = levels <= config.level_threshold
            assert np.array_equal(field.areas[cold], old[cold])
            assert np.all(field.areas <= target * (1 + 1e-12))
            limit = max(field.total_capacity, float(old.sum()))
            assert field.total_area <= limit * (1 + 1e-12)
