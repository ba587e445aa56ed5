"""Macro and cell legalization.

After global placement, macros (DSP/BRAM/URAM) must land on discrete
sites of their own column type, cascade chains on *consecutive* sites of
one column in order, and region-constrained macros inside their fences
(Section II-A).  The legalizer is a displacement-greedy assigner: items
are processed largest-first (cascade chains before singletons), each
scanning candidate columns outward from its global-placement position
for the free window that minimizes total displacement.

Cells (CLB clusters) get a lighter treatment — slot-per-site assignment
within each CLB column, processed in x order — since the congestion
metric operates at interconnect-tile granularity and only needs cells to
respect column capacities, not LUT-level packing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch import ResourceType, SiteType
from ..netlist import Design

__all__ = ["LegalizationResult", "legalize_macros", "legalize_cells", "legalize"]

_MACRO_SITES = {
    ResourceType.DSP: SiteType.DSP,
    ResourceType.BRAM: SiteType.BRAM,
    ResourceType.URAM: SiteType.URAM,
}


@dataclass
class LegalizationResult:
    """Outcome of a legalization pass."""

    x: np.ndarray
    y: np.ndarray
    total_displacement: float
    max_displacement: float
    failures: list[str] = field(default_factory=list)

    @property
    def legal(self) -> bool:
        return not self.failures


def _region_of(design: Design, instances: tuple[int, ...]):
    """The region constraining any of ``instances`` (None if unconstrained)."""
    for region in design.regions:
        if any(i in region.instances for i in instances):
            return region
    return None


def _find_window(
    occupied: np.ndarray, length: int, target: float, lo: int, hi: int
) -> int | None:
    """Lowest-cost start row of a free window of ``length`` in [lo, hi).

    ``occupied`` is the column's boolean occupancy; cost is the distance
    between the window center and ``target``.
    """
    if hi - lo < length:
        return None
    free = ~occupied[lo:hi]
    # Sliding-window free count via prefix sums: window i (start
    # lo + i) is fully free iff the count over its span equals length.
    csum = np.cumsum(free)
    window = csum[length - 1 :] - np.concatenate(([0], csum[:-length]))
    starts = np.nonzero(window == length)[0] + lo
    if starts.size == 0:
        return None
    centers = starts + 0.5 * (length - 1)
    # argmin takes the first minimum, matching the ascending-row scan's
    # tie-break toward the lowest start.
    return int(starts[np.argmin(np.abs(centers - target))])


def legalize_macros(design: Design, x: np.ndarray, y: np.ndarray) -> LegalizationResult:
    """Snap all macros to legal sites, honoring cascades and regions."""
    device = design.device
    x = x.copy()
    y = y.copy()
    failures: list[str] = []

    # Column occupancy per macro site type.
    # Sorted so the occupancy dict has a run-independent key order
    # (REPRO010: set iteration order is not deterministic).
    occupancy: dict[SiteType, dict[int, np.ndarray]] = {}
    for site_type in sorted(set(_MACRO_SITES.values()), key=lambda s: s.value):
        occupancy[site_type] = {
            int(col): np.zeros(device.num_rows, dtype=bool)
            for col in device.columns_of_type(site_type)
        }

    # Build work items: region-constrained items first (they have the
    # fewest options), then by descending chain length.
    in_cascade = {i for c in design.cascades for i in c.instances}
    items: list[tuple[tuple[int, ...], ResourceType]] = []
    for cascade in design.cascades:
        items.append(
            (cascade.instances, design.instances[cascade.instances[0]].resource)
        )
    singles = [
        (int(i),)
        for i in design.macro_indices()
        if int(i) not in in_cascade and design.instances[int(i)].movable
    ]
    items.extend((s, design.instances[s[0]].resource) for s in singles)
    items.sort(
        key=lambda item: (
            _region_of(design, item[0]) is None,  # fenced items first
            -len(item[0]),  # long chains before singletons
        )
    )

    total_disp = 0.0
    max_disp = 0.0
    for instances, resource in items:
        site_type = _MACRO_SITES[resource]
        columns = occupancy[site_type]
        if not columns:
            failures.append(f"no {site_type.value} columns on device")
            continue
        length = len(instances)
        cx = float(np.mean(x[list(instances)]))
        cy = float(np.mean(y[list(instances)])) - 0.5 * (length - 1)

        region = _region_of(design, instances)
        row_lo, row_hi = 0, device.num_rows
        col_pool = np.fromiter(columns.keys(), dtype=np.int64)
        if region is not None:
            col_pool = col_pool[
                (col_pool >= region.xlo) & (col_pool < region.xhi)
            ]
            row_lo = max(0, int(np.ceil(region.ylo)))
            row_hi = min(device.num_rows, int(np.floor(region.yhi)))
        if col_pool.size == 0 or row_hi - row_lo < length:
            failures.append(
                f"no feasible sites for {design.instances[instances[0]].name} "
                f"(cascade length {length})"
            )
            continue

        order = col_pool[np.argsort(np.abs(col_pool - cx))]
        placed = False
        for col in order:
            start = _find_window(columns[int(col)], length, cy, row_lo, row_hi)
            if start is None:
                continue
            columns[int(col)][start : start + length] = True
            idx = np.asarray(instances, dtype=np.int64)
            rows = start + np.arange(length, dtype=np.float64)
            disp = np.hypot(float(col) - x[idx], rows - y[idx])
            total_disp += float(disp.sum())
            max_disp = max(max_disp, float(disp.max()))
            x[idx] = float(col)
            y[idx] = rows
            placed = True
            break
        if not placed:
            failures.append(
                f"could not legalize {design.instances[instances[0]].name} "
                f"(length {length})"
            )

    return LegalizationResult(x, y, total_disp, max_disp, failures)


def legalize_cells(design: Design, x: np.ndarray, y: np.ndarray) -> LegalizationResult:
    """Assign CLB clusters to CLB columns without exceeding capacity.

    Each CLB site hosts one 8-LUT cluster.  Clusters are swept in x
    order and pushed to the nearest column with free rows; within a
    column they take the free row closest to their global-placement y.
    """
    device = design.device
    x = x.copy()
    y = y.copy()
    failures: list[str] = []

    clb_cols = device.columns_of_type(SiteType.CLB)
    col_free: dict[int, list[int]] = {
        int(c): list(range(device.num_rows)) for c in clb_cols
    }
    cells = [
        int(i)
        for i in design.instances_of(ResourceType.LUT)
        if design.instances[int(i)].movable
        and design.demand_matrix[int(i)].sum() > 0
    ]
    cells.sort(key=lambda i: x[i])

    total_disp = 0.0
    max_disp = 0.0
    cols_arr = np.asarray(sorted(col_free), dtype=np.int64)
    for inst in cells:
        order = cols_arr[np.argsort(np.abs(cols_arr - x[inst]))]
        placed = False
        for col in order:
            rows = col_free[int(col)]
            if not rows:
                continue
            pos = int(np.argmin(np.abs(np.asarray(rows) - y[inst])))
            row = rows.pop(pos)
            dx = float(col) - x[inst]
            dy = float(row) - y[inst]
            disp = float(np.hypot(dx, dy))
            total_disp += disp
            max_disp = max(max_disp, disp)
            x[inst] = float(col)
            y[inst] = float(row)
            placed = True
            break
        if not placed:
            failures.append(f"no CLB site left for {design.instances[inst].name}")

    return LegalizationResult(x, y, total_disp, max_disp, failures)


def legalize(design: Design, x: np.ndarray, y: np.ndarray) -> LegalizationResult:
    """Macros first (they are the scarce, constrained resources), then cells."""
    macro_result = legalize_macros(design, x, y)
    cell_result = legalize_cells(design, macro_result.x, macro_result.y)
    return LegalizationResult(
        cell_result.x,
        cell_result.y,
        macro_result.total_displacement + cell_result.total_displacement,
        max(macro_result.max_displacement, cell_result.max_displacement),
        macro_result.failures + cell_result.failures,
    )
