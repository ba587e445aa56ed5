"""Design container: validation, pin arrays, HPWL, utilization."""

import numpy as np
import pytest

from repro.arch import CascadeShape, RegionConstraint, ResourceType
from repro.netlist import Design, Instance, Net

class TestNetValidation:
    def test_single_pin_net_rejected(self):
        with pytest.raises(ValueError, match="two pins"):
            Net((0,))


class TestDesignConstruction:
    def test_pin_arrays(self, manual_design):
        d = manual_design
        assert d.num_pins == 2 + 3 + 2 + 2
        # Pins of net 1 map back to net index 1.
        np.testing.assert_array_equal(
            d.pin_inst[d.pin_net == 1], [1, 2, 3]
        )

    def test_inst_num_pins(self, manual_design):
        # Instance 0 appears in nets 0 and 2.
        assert manual_design.inst_num_pins[0] == 2
        assert manual_design.inst_num_pins[3] == 1

    def test_macro_mask(self, manual_design):
        np.testing.assert_array_equal(
            manual_design.macro_mask, [False, False, False, True, True, False]
        )

    def test_movable_mask(self, manual_design):
        assert not manual_design.movable_mask[5]
        assert manual_design.movable_mask[0]

    def test_bad_pin_reference_rejected(self, tiny_device):
        with pytest.raises(ValueError, match="nonexistent"):
            Design(
                "bad", tiny_device,
                [Instance("a", ResourceType.LUT)],
                [Net((0, 7))],
            )

    def test_cascade_on_cell_rejected(self, tiny_device):
        instances = [
            Instance("a", ResourceType.LUT),
            Instance("b", ResourceType.LUT),
        ]
        with pytest.raises(ValueError, match="macros"):
            Design(
                "bad", tiny_device, instances, [Net((0, 1))],
                cascades=[CascadeShape((0, 1))],
            )

    def test_cascade_bad_index_rejected(self, tiny_device):
        instances = [Instance("a", ResourceType.DSP), Instance("b", ResourceType.DSP)]
        with pytest.raises(ValueError, match="nonexistent"):
            Design(
                "bad", tiny_device, instances, [Net((0, 1))],
                cascades=[CascadeShape((0, 9))],
            )

    def test_region_bad_index_rejected(self, tiny_device):
        instances = [Instance("a", ResourceType.LUT), Instance("b", ResourceType.LUT)]
        with pytest.raises(ValueError, match="nonexistent"):
            Design(
                "bad", tiny_device, instances, [Net((0, 1))],
                regions=[RegionConstraint(0, 0, 4, 4, frozenset({9}))],
            )

    @pytest.mark.parametrize("idx", (-1, -2))
    def test_negative_constraint_index_rejected(self, tiny_device, idx):
        # A negative index would otherwise alias instance n + idx.
        instances = [Instance("a", ResourceType.DSP), Instance("b", ResourceType.DSP)]
        with pytest.raises(ValueError, match="cascade references a nonexistent"):
            Design(
                "bad", tiny_device, instances, [Net((0, 1))],
                cascades=[CascadeShape((0, idx))],
            )
        with pytest.raises(ValueError, match="region references a nonexistent"):
            Design(
                "bad", tiny_device, instances, [Net((0, 1))],
                regions=[RegionConstraint(0, 0, 4, 4, frozenset({idx}))],
            )


class TestPlacementState:
    def test_set_placement_clips_to_device(self, manual_design):
        n = manual_design.num_instances
        manual_design.set_placement(np.full(n, 1e6), np.full(n, -1e6))
        assert manual_design.x.max() < manual_design.device.width
        assert manual_design.y.min() >= 0.0

    def test_set_placement_shape_checked(self, manual_design):
        with pytest.raises(ValueError, match="shape"):
            manual_design.set_placement(np.zeros(3), np.zeros(3))

    def test_hpwl_known_value(self, manual_design):
        d = manual_design
        x = np.array([0.0, 2.0, 4.0, 1.0, 3.0, 5.0])
        y = np.array([0.0, 0.0, 0.0, 2.0, 1.0, 3.0])
        d.set_placement(x, y)
        # net0 (0,1): dx=2, dy=0 -> 2;  net1 (1,2,3): dx=3, dy=2 -> 5
        # net2 (0,4): dx=3, dy=1 -> 4;  net3 (2,5) weight2: (1+3)*2 -> 8
        assert d.hpwl() == pytest.approx(2 + 5 + 4 + 8)

    def test_hpwl_zero_when_coincident(self, manual_design):
        n = manual_design.num_instances
        manual_design.set_placement(np.full(n, 3.0), np.full(n, 3.0))
        assert manual_design.hpwl() == pytest.approx(0.0)


class TestDemandAndUtilization:
    def test_total_demand(self, manual_design):
        assert manual_design.total_demand(ResourceType.LUT) == 20.0
        assert manual_design.total_demand(ResourceType.DSP) == 1.0

    def test_utilization(self, manual_design):
        lut_cap = manual_design.device.resource_capacity(ResourceType.LUT)
        assert manual_design.utilization(ResourceType.LUT) == pytest.approx(
            20.0 / lut_cap
        )

    def test_instances_of(self, manual_design):
        np.testing.assert_array_equal(
            manual_design.instances_of(ResourceType.DSP), [3]
        )

    def test_stats_keys(self, manual_design):
        stats = manual_design.stats()
        assert stats["DSP"] == 1
        assert stats["LUT"] == 20

    def test_default_demand_from_resource(self):
        inst = Instance("d", ResourceType.DSP)
        assert inst.demand == {ResourceType.DSP: 1.0}
        assert inst.is_macro
