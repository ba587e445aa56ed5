"""Region tension term for region-aware global placement (Section IV).

The paper adds a *region tension function* to the global placement
objective so that instances assigned to a region constraint are pulled
inside their fence during stage 1.  We use the standard quadratic
distance penalty: for instance ``i`` assigned to region ``r``,

.. math::  T = w \\sum_i d_r(x_i, y_i)^2

where ``d_r`` is the Euclidean distance to the fence rectangle (zero
inside).  The gradient is linear in the outside-distance components,
i.e. a constant-stiffness spring toward the nearest fence point.
"""

from __future__ import annotations

import numpy as np

from ..netlist import Design

__all__ = ["RegionTension"]


class RegionTension:
    """Precomputed region membership with a vectorized penalty/gradient."""

    def __init__(self, design: Design) -> None:
        self.design = design
        self._members: list[np.ndarray] = []
        self._rects: list[tuple[float, float, float, float]] = []
        for region in design.regions:
            members = np.fromiter(
                (i for i in region.instances if design.instances[i].movable),
                dtype=np.int64,
            )
            if members.size:
                self._members.append(members)
                self._rects.append(
                    (region.xlo, region.ylo, region.xhi, region.yhi)
                )
        # Every region's members in region order (empty without regions).
        self._all_members = np.concatenate([np.zeros(0, np.int64), *self._members])

    @property
    def num_constrained(self) -> int:
        return int(sum(m.size for m in self._members))

    def penalty_and_grad(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Quadratic fence-distance penalty and its gradient."""
        total = 0.0
        steps_x, steps_y = [np.zeros(0)], [np.zeros(0)]
        for members, (xlo, ylo, xhi, yhi) in zip(self._members, self._rects):
            mx = x[members]
            my = y[members]
            # Signed outside components (0 inside the fence).
            dx = np.where(mx < xlo, mx - xlo, np.where(mx > xhi, mx - xhi, 0.0))
            dy = np.where(my < ylo, my - ylo, np.where(my > yhi, my - yhi, 0.0))
            total += float((dx**2 + dy**2).sum())
            steps_x.append(2.0 * dx)
            steps_y.append(2.0 * dy)
        # One scatter over every region's members, in region order.
        members = self._all_members
        grad_x = np.bincount(members, weights=np.concatenate(steps_x), minlength=x.size)
        grad_y = np.bincount(members, weights=np.concatenate(steps_y), minlength=y.size)
        return total, grad_x, grad_y

    def violation_count(self, x: np.ndarray, y: np.ndarray, tol: float = 1e-6) -> int:
        """Number of constrained instances currently outside their fence."""
        count = 0
        for members, (xlo, ylo, xhi, yhi) in zip(self._members, self._rects):
            mx = x[members]
            my = y[members]
            outside = (
                (mx < xlo - tol)
                | (mx > xhi + tol)
                | (my < ylo - tol)
                | (my > yhi + tol)
            )
            count += int(outside.sum())
        return count

    def clamp(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project constrained instances onto their fences (hard snap)."""
        x = x.copy()
        y = y.copy()
        for members, (xlo, ylo, xhi, yhi) in zip(self._members, self._rects):
            x[members] = np.clip(x[members], xlo, xhi - 1e-6)
            y[members] = np.clip(y[members], ylo, yhi - 1e-6)
        return x, y
