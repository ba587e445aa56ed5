"""Property-based tests for the placement/netlist extensions.

Invariants over randomized inputs for clustering and swap refinement —
the extension modules the ablation benches exercise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ResourceType
from repro.netlist import (
    MLCAD2023_SPECS,
    cluster_cells,
    expand_placement,
    generate_design,
)
from repro.placement import legalize, refine_cells, refine_macros


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(8.0, 32.0))
def test_clustering_conserves_demand_for_any_seed(seed, max_lut):
    design = generate_design(MLCAD2023_SPECS["Design_120"], scale=1 / 256)
    clustered, mapping = cluster_cells(design, max_lut=max_lut, seed=seed)
    for res in ResourceType:
        assert clustered.total_demand(res) == pytest.approx(
            design.total_demand(res)
        )
    # Mapping is a surjection onto the clustered index range.
    assert set(mapping.tolist()) == set(range(clustered.num_instances))
    # The LUT cap holds for every movable cluster.
    lut_col = list(ResourceType).index(ResourceType.LUT)
    movable = clustered.movable_mask
    assert clustered.demand_matrix[movable, lut_col].max() <= max_lut + 1e-9


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_expand_placement_is_total(seed):
    design = generate_design(MLCAD2023_SPECS["Design_120"], scale=1 / 256)
    clustered, mapping = cluster_cells(design, seed=seed)
    rng = np.random.default_rng(seed)
    clustered.set_placement(
        rng.uniform(0, clustered.device.width, clustered.num_instances),
        rng.uniform(0, clustered.device.height, clustered.num_instances),
    )
    x, y = expand_placement(clustered, mapping)
    assert x.shape == (design.num_instances,)
    assert np.isfinite(x).all() and np.isfinite(y).all()
    assert x.min() >= 0 and x.max() <= design.device.width


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_refinement_never_degrades_any_legal_placement(seed):
    design = generate_design(MLCAD2023_SPECS["Design_120"], scale=1 / 256)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, design.device.width, design.num_instances)
    y = rng.uniform(0, design.device.height, design.num_instances)
    legal = legalize(design, x, y)
    design.set_placement(legal.x, legal.y)
    baseline = design.hpwl()
    macro_pass = refine_macros(design, legal.x, legal.y, max_passes=1, seed=seed)
    cell_pass = refine_cells(
        design, macro_pass.x, macro_pass.y, max_passes=1, seed=seed
    )
    assert cell_pass.hpwl_after <= baseline + 1e-6
    # Cascades remain satisfied through both passes.
    for cascade in design.cascades:
        assert cascade.is_satisfied(cell_pass.x, cell_pass.y)
