"""Bottom-up cell clustering."""

import numpy as np
import pytest

from repro.arch import ResourceType
from repro.netlist import (
    MLCAD2023_SPECS,
    cluster_cells,
    expand_placement,
    generate_design,
)


@pytest.fixture(scope="module")
def clustered_pair():
    design = generate_design(MLCAD2023_SPECS["Design_116"], scale=1 / 128)
    clustered, mapping = cluster_cells(design, max_lut=16.0, seed=0)
    return design, clustered, mapping


class TestClusterCells:
    def test_reduces_instance_count(self, clustered_pair):
        design, clustered, _ = clustered_pair
        assert clustered.num_instances < design.num_instances

    def test_mapping_covers_every_instance(self, clustered_pair):
        design, clustered, mapping = clustered_pair
        assert mapping.shape == (design.num_instances,)
        assert mapping.min() >= 0
        assert mapping.max() < clustered.num_instances
        # Every clustered instance is the image of at least one original.
        assert set(mapping.tolist()) == set(range(clustered.num_instances))

    def test_demand_conserved_per_resource(self, clustered_pair):
        design, clustered, _ = clustered_pair
        for res in ResourceType:
            assert clustered.total_demand(res) == pytest.approx(
                design.total_demand(res)
            )

    def test_lut_cap_respected(self, clustered_pair):
        _, clustered, _ = clustered_pair
        lut_col = list(ResourceType).index(ResourceType.LUT)
        movable = clustered.movable_mask
        assert clustered.demand_matrix[movable, lut_col].max() <= 16.0 + 1e-9

    def test_macros_map_one_to_one(self, clustered_pair):
        design, clustered, mapping = clustered_pair
        macro_targets = mapping[design.macro_indices()]
        assert len(set(macro_targets.tolist())) == design.macro_indices().size
        for orig, target in zip(design.macro_indices(), macro_targets):
            assert (
                clustered.instances[int(target)].resource
                is design.instances[int(orig)].resource
            )

    def test_fixed_instances_preserved(self, clustered_pair):
        design, clustered, mapping = clustered_pair
        fixed = np.flatnonzero(~design.movable_mask)
        for orig in fixed:
            assert not clustered.instances[int(mapping[orig])].movable

    def test_constraints_remapped(self, clustered_pair):
        design, clustered, _ = clustered_pair
        assert len(clustered.cascades) == len(design.cascades)
        assert len(clustered.regions) == len(design.regions)

    def test_fence_never_mixes(self, clustered_pair):
        """A cluster never contains both fenced and unfenced cells."""
        design, clustered, mapping = clustered_pair
        fence_of = {}
        for ridx, region in enumerate(design.regions):
            for inst in region.instances:
                fence_of[inst] = ridx
        cluster_fences: dict[int, set] = {}
        for orig in range(design.num_instances):
            cluster_fences.setdefault(int(mapping[orig]), set()).add(
                fence_of.get(orig)
            )
        for fences in cluster_fences.values():
            assert len(fences) == 1

    def test_net_connectivity_preserved(self, clustered_pair):
        """Nets survive unless fully absorbed inside one cluster."""
        design, clustered, mapping = clustered_pair
        surviving = 0
        for net in design.nets:
            images = {int(mapping[p]) for p in net.pins}
            if len(images) >= 2:
                surviving += 1
        assert clustered.num_nets == surviving

    def test_expand_placement_roundtrip(self, clustered_pair):
        design, clustered, mapping = clustered_pair
        x, y = expand_placement(clustered, mapping)
        assert x.shape == (design.num_instances,)
        # All members of one cluster land on the cluster's position.
        cluster0 = np.flatnonzero(mapping == mapping[0])
        assert np.allclose(x[cluster0], x[cluster0][0])

    def test_expand_placement_results_are_fresh(self, clustered_pair):
        _, clustered, mapping = clustered_pair
        x_snap, y_snap = clustered.x.copy(), clustered.y.copy()
        x, y = expand_placement(clustered, mapping)
        # Advanced indexing materializes fresh arrays: writing to the
        # expansion must not leak back into the clustered design.
        assert not np.shares_memory(x, clustered.x)
        assert not np.shares_memory(y, clustered.y)
        x += 123.0
        y += 123.0
        np.testing.assert_array_equal(clustered.x, x_snap)
        np.testing.assert_array_equal(clustered.y, y_snap)

    def test_deterministic(self):
        design = generate_design(MLCAD2023_SPECS["Design_120"], scale=1 / 256)
        a, map_a = cluster_cells(design, seed=3)
        b, map_b = cluster_cells(design, seed=3)
        assert a.num_instances == b.num_instances
        np.testing.assert_array_equal(map_a, map_b)

    def test_pin_order_does_not_change_clustering(self):
        """Regression for the REPRO010 finding in _affinities.

        Affinity accumulation iterated a bare ``set(net.pins)``, so the
        visit order (and with it float accumulation and tie-breaks)
        depended on hash order rather than on the netlist.  Reversing
        every net's pin list must produce the identical clustering.
        """
        design = generate_design(MLCAD2023_SPECS["Design_120"], scale=1 / 256)
        _, map_a = cluster_cells(design, seed=3)
        for net in design.nets:
            net.pins = tuple(reversed(net.pins))
        _, map_b = cluster_cells(design, seed=3)
        np.testing.assert_array_equal(map_a, map_b)

    def test_clustered_placement_flow(self):
        """Cluster → place → expand runs end to end and shortens HPWL."""
        from repro.placement import GPConfig, PlacerConfig, place_design

        design = generate_design(MLCAD2023_SPECS["Design_120"], scale=1 / 256)
        clustered, mapping = cluster_cells(design)
        place_design(
            clustered,
            config=PlacerConfig(
                gp=GPConfig(bins=16, max_iters=120),
                inflation_rounds=0,
                stage1_iters=100,
                stage2_iters=20,
            ),
        )
        x, y = expand_placement(clustered, mapping)
        design.set_placement(x, y)
        assert np.isfinite(design.hpwl())
