"""Bottom-up netlist clustering (BestChoice-style first-choice pass).

Analytical placers (incl. DREAMPlaceFPGA) cluster tightly connected
cells before global placement to shrink the variable count, then expand
back.  This module provides that substrate: cells merge with their
highest-affinity neighbour (affinity = Σ 1/(|net|−1) over shared nets,
the standard clique-model edge weight) under a LUT-capacity cap; macros,
fixed instances and region-fenced cells never merge across fences.

Usage::

    clustered, mapping = cluster_cells(design, max_lut=16.0)
    # place `clustered` ... then carry positions back:
    x, y = expand_placement(clustered, mapping)
    design.set_placement(x, y)
"""

from __future__ import annotations

import numpy as np

from ..arch import ResourceType
from .design import Design, Instance, Net

__all__ = ["cluster_cells", "expand_placement"]

_LUT_COL = list(ResourceType).index(ResourceType.LUT)


def _affinities(design: Design, clusterable: np.ndarray) -> dict[int, dict[int, float]]:
    """Pairwise clique-model affinities among clusterable instances."""
    clusterable_set = set(int(i) for i in clusterable)
    graph: dict[int, dict[int, float]] = {int(i): {} for i in clusterable}
    for net in design.nets:
        pins = [p for p in sorted(set(net.pins)) if p in clusterable_set]
        k = len(net.pins)
        if len(pins) < 2 or k < 2 or k > 16:
            continue
        weight = net.weight / (k - 1)
        for i, a in enumerate(pins):
            for b in pins[i + 1:]:
                graph[a][b] = graph[a].get(b, 0.0) + weight
                graph[b][a] = graph[b].get(a, 0.0) + weight
    return graph


def cluster_cells(
    design: Design,
    max_lut: float = 16.0,
    seed: int = 0,
) -> tuple[Design, np.ndarray]:
    """Merge tightly connected cells; returns ``(clustered, mapping)``.

    ``mapping[i]`` is the clustered-design instance index of original
    instance ``i``.  Macros and fixed instances map 1:1.  Cells inside
    different region fences (or fenced vs. unfenced) never merge, so
    region constraints survive clustering unchanged.
    """
    rng = np.random.default_rng(seed)
    fence_of: dict[int, int] = {}
    for ridx, region in enumerate(design.regions):
        for inst in region.instances:
            fence_of[inst] = ridx

    clusterable = np.array(
        [
            int(i)
            for i in design.instances_of(ResourceType.LUT)
            if design.instances[int(i)].movable
            and design.demand_matrix[int(i)].sum() > 0
        ],
        dtype=np.int64,
    )
    graph = _affinities(design, clusterable)

    # First-choice pass: each cell merges with its best eligible
    # neighbour if the merged LUT demand fits under the cap.
    group_of = {int(i): int(i) for i in clusterable}
    group_lut = {
        int(i): float(design.demand_matrix[int(i), _LUT_COL])
        for i in clusterable
    }

    def find(i: int) -> int:
        while group_of[i] != i:
            group_of[i] = group_of[group_of[i]]
            i = group_of[i]
        return i

    order = rng.permutation(clusterable)
    for raw in order:
        a = find(int(raw))
        best_b, best_w = -1, 0.0
        for nbr, weight in graph[int(raw)].items():
            b = find(nbr)
            if b == a:
                continue
            if fence_of.get(int(raw)) != fence_of.get(nbr):
                continue
            if group_lut[a] + group_lut[b] > max_lut:
                continue
            if weight > best_w:
                best_b, best_w = b, weight
        if best_b >= 0:
            group_of[best_b] = a
            group_lut[a] += group_lut[best_b]

    # Build the clustered design.
    mapping = np.full(design.num_instances, -1, dtype=np.int64)
    instances: list[Instance] = []
    rep_position: list[int] = []  # representative original index

    cluster_index: dict[int, int] = {}
    for idx in range(design.num_instances):
        inst = design.instances[idx]
        if idx in group_of:
            root = find(idx)
            if root not in cluster_index:
                cluster_index[root] = len(instances)
                instances.append(
                    Instance(
                        name=f"cluster_{len(instances)}",
                        resource=ResourceType.LUT,
                        demand={},
                        movable=True,
                    )
                )
                rep_position.append(root)
            mapping[idx] = cluster_index[root]
        else:
            mapping[idx] = len(instances)
            instances.append(
                Instance(
                    name=inst.name,
                    resource=inst.resource,
                    demand=dict(inst.demand),
                    movable=inst.movable,
                )
            )
            rep_position.append(idx)

    # Accumulate merged demands onto each cluster.
    demand_acc: dict[int, dict] = {}
    for idx in range(design.num_instances):
        if idx not in group_of:
            continue
        slot = int(mapping[idx])
        acc = demand_acc.setdefault(slot, {})
        for res, amount in design.instances[idx].demand.items():
            acc[res] = acc.get(res, 0.0) + amount
    for slot, acc in demand_acc.items():
        instances[slot].demand = acc

    # Re-map nets; drop degenerate ones.
    nets: list[Net] = []
    for net in design.nets:
        pins = tuple(sorted({int(mapping[p]) for p in net.pins}))
        if len(pins) >= 2:
            nets.append(Net(pins, weight=net.weight))

    from ..arch import CascadeShape, RegionConstraint

    cascades = [
        CascadeShape(tuple(int(mapping[i]) for i in c.instances))
        for c in design.cascades
    ]
    regions = [
        RegionConstraint(
            r.xlo, r.ylo, r.xhi, r.yhi,
            frozenset(int(mapping[i]) for i in r.instances),
        )
        for r in design.regions
    ]
    clustered = Design(
        name=f"{design.name}(clustered)",
        device=design.device,
        instances=instances,
        nets=nets,
        cascades=cascades,
        regions=regions,
        nominal_stats=dict(design.nominal_stats),
    )
    # Seed positions from the representatives (incl. fixed IO).
    clustered.set_placement(
        design.x[np.asarray(rep_position)], design.y[np.asarray(rep_position)]
    )
    clustered._mapping_source = design  # for expand_placement
    clustered._mapping = mapping
    return clustered, mapping


def expand_placement(
    clustered: Design, mapping: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Original-design coordinates from a placed clustered design."""
    # Advanced indexing already materializes fresh arrays; a trailing
    # .copy() would double the allocation for nothing.
    return clustered.x[mapping], clustered.y[mapping]
