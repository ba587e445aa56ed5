"""Cascade-shape handling: merge chained macros into single clusters.

Following the technique of DREAMPlaceFPGA-MP [11] that the paper adopts,
macros under the same cascade shape constraint are merged into one large
cluster *before* global placement: the cluster has a single movable
``(x, y)`` and each member keeps a fixed vertical offset (0, 1, 2, …)
inside it.  :class:`GroupMap` realises this as a linear map between the
group variable vector and per-instance coordinates, with the transpose
map accumulating gradients back onto group variables.
"""

from __future__ import annotations

import numpy as np

from ..netlist import Design

__all__ = ["GroupMap"]


class GroupMap:
    """Variable grouping for cascades and fixed instances.

    Every movable instance belongs to exactly one group: cascade members
    share their cascade's group, everything else is a singleton.  Fixed
    instances are not variables at all; their coordinates are constants
    supplied at construction.
    """

    def __init__(self, design: Design) -> None:
        self.design = design
        n = design.num_instances
        group_of = np.full(n, -1, dtype=np.int64)
        offset_y = np.zeros(n)

        num_groups = 0
        in_cascade = np.zeros(n, dtype=bool)
        self.cascade_groups: list[int] = []
        for cascade in design.cascades:
            gid = num_groups
            num_groups += 1
            self.cascade_groups.append(gid)
            for rank, inst in enumerate(cascade.instances):
                if in_cascade[inst]:
                    raise ValueError(
                        f"instance {inst} appears in multiple cascade shapes"
                    )
                in_cascade[inst] = True
                group_of[inst] = gid
                offset_y[inst] = float(rank)

        for inst in range(n):
            if not design.movable_mask[inst] or in_cascade[inst]:
                continue
            group_of[inst] = num_groups
            num_groups += 1

        self.group_of = group_of
        self.offset_y = offset_y
        self.num_groups = num_groups
        self._movable = np.flatnonzero(group_of >= 0)
        self._fixed = np.flatnonzero(group_of < 0)
        self.fixed_x = design.x[self._fixed].copy()
        self.fixed_y = design.y[self._fixed].copy()
        # Total site-unit mass per group, used for gradient preconditioning.
        self.group_sizes = np.bincount(
            group_of[self._movable], minlength=num_groups
        ).astype(np.float64)
        # Largest member offset per group: how far below the device top
        # the group variable must stay.
        self._max_off = np.zeros(num_groups)
        np.maximum.at(
            self._max_off, group_of[self._movable], offset_y[self._movable]
        )

    # -- variable <-> instance maps ------------------------------------------------

    def initial_variables(self) -> tuple[np.ndarray, np.ndarray]:
        """Group positions seeded from the design's current placement."""
        gx = np.zeros(self.num_groups)
        gy = np.zeros(self.num_groups)
        counts = np.zeros(self.num_groups)
        gids = self.group_of[self._movable]
        np.add.at(gx, gids, self.design.x[self._movable])
        np.add.at(
            gy, gids, self.design.y[self._movable] - self.offset_y[self._movable]
        )
        np.add.at(counts, gids, 1.0)
        counts[counts == 0] = 1.0
        return gx / counts, gy / counts

    def expand(self, gx: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-instance coordinates from group variables."""
        x = np.empty(self.design.num_instances)
        y = np.empty(self.design.num_instances)
        x[self._fixed] = self.fixed_x
        y[self._fixed] = self.fixed_y
        gids = self.group_of[self._movable]
        x[self._movable] = gx[gids]
        y[self._movable] = gy[gids] + self.offset_y[self._movable]
        return x, y

    def reduce_grad(
        self, grad_x: np.ndarray, grad_y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Accumulate per-instance gradients onto group variables."""
        gids = self.group_of[self._movable]
        n = self.num_groups
        ggx = np.bincount(gids, weights=grad_x[self._movable], minlength=n)
        ggy = np.bincount(gids, weights=grad_y[self._movable], minlength=n)
        return ggx, ggy

    def clamp_variables(
        self, gx: np.ndarray, gy: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Keep every member of every group inside the device."""
        device = self.design.device
        gx = np.clip(gx, 0.0, device.width - 1.0)
        gy = np.clip(gy, 0.0, device.height - 1.0 - self._max_off)
        return gx, gy
