"""Pattern-based global router with negotiated congestion.

This is the reproduction's stand-in for the Vivado initial router
(DESIGN.md §2): it routes every net over the device's interconnect tile
grid and reports per-tile, per-direction wire usage, from which
:mod:`repro.routing.congestion` derives the Fig. 1 congestion levels and
Eq. 1 scores, and from whose convergence behaviour
:mod:`repro.routing.detailed` models the detailed-router iteration count
(S_DR).

Algorithm
---------
* Nets are decomposed into two-pin connections with a Prim MST over
  their pin tiles.  All nets are decomposed in one batched pass
  (:func:`repro.routing.topology.batched_mst_connections`): Prim runs in
  lockstep over the nets that have the same number of unique tiles.
* Short connections use *short* wires, long connections *global* wires —
  mirroring the two congestion classes of the contest metric.  A global
  wire spans several tiles, so each boundary crossing consumes
  ``1/GLOBAL_SPAN`` of a global track.
* Each iteration routes **all** connections against a congestion cost
  snapshot using 1- and 2-bend pattern candidates (costs are O(1) per
  candidate via prefix sums), then rebuilds usage (one ``bincount`` of
  run ends per orientation into a difference array) and raises
  PathFinder history costs on overused edges.  Iterating this batch
  scheme is the negotiated-congestion loop; the number of iterations
  needed to clear (or the residual overuse at the cap) measures how
  routable the placement is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..netlist import Design

__all__ = ["RouterConfig", "RoutingResult", "GlobalRouter", "route_design"]

GLOBAL_SPAN = 4.0  # tiles spanned by one global wire segment


@dataclass(frozen=True)
class RouterConfig:
    """Router knobs."""

    max_iterations: int = 12
    history_gain: float = 0.4
    overflow_penalty: float = 3.0
    global_threshold: int = 5  # manhattan tile distance; beyond -> global wires
    # Per-candidate cost jitter (in base-cost units).  Batch rerouting
    # evaluates every connection against the same cost snapshot, so
    # identical connections would always pick identical paths and a
    # bundle could never split across rows; the jitter breaks those ties.
    jitter: float = 0.5
    # Rip up connections still crossing overused boundaries after pattern
    # negotiation and reroute them with congestion-aware A* (repro.routing.maze).
    # On by default: the Vivado initial router this substitutes for is a
    # full negotiated maze router, and without the fallback rare pattern-
    # routing artifacts dominate the congestion tail (DESIGN.md §2).
    maze_fallback: bool = True
    # Multi-pin net decomposition: "mst" (baseline), "stst" (single-trunk
    # Steiner) or "best" (shorter of the two per net) — see routing.topology.
    decomposition: str = "mst"
    seed: int = 0


@dataclass
class RoutingResult:
    """Usage snapshots and convergence data of one routing run.

    ``h_*``/``v_*`` arrays hold wire usage per tile boundary:
    ``h_short[i, j]`` is the short-wire demand crossing between tiles
    ``(i, j)`` and ``(i+1, j)``; ``v_short[i, j]`` between ``(i, j)`` and
    ``(i, j+1)``.  Global arrays are in *track* units (crossings divided
    by :data:`GLOBAL_SPAN`).
    """

    h_short: np.ndarray
    v_short: np.ndarray
    h_global: np.ndarray
    v_global: np.ndarray
    short_capacity: float
    global_capacity: float
    iterations: int
    converged: bool
    overuse_history: list[float] = field(default_factory=list)
    num_connections: int = 0
    total_wirelength: float = 0.0
    residual_overuse: float = 0.0  # short + global overuse after the last pass

    def max_utilization(self) -> float:
        """Worst boundary utilization across classes and orientations."""
        utils = [
            self.h_short.max(initial=0.0) / self.short_capacity,
            self.v_short.max(initial=0.0) / self.short_capacity,
            self.h_global.max(initial=0.0) / self.global_capacity,
            self.v_global.max(initial=0.0) / self.global_capacity,
        ]
        return float(max(utils))


def _net_connections(
    design: Design, grid_w: int, grid_h: int, decomposition: str = "mst"
) -> np.ndarray:
    """Two-pin tile connections for every net.

    Nets are decomposed per :mod:`repro.routing.topology` (MST by
    default).  Returns an ``(M, 4)`` int array of ``(x0, y0, x1, y1)``
    tile endpoints with zero-length connections removed.
    """
    from .topology import batched_mst_connections, decompose_net

    device = design.device
    tx = np.clip(
        (design.x / device.width * grid_w).astype(np.int64), 0, grid_w - 1
    )
    ty = np.clip(
        (design.y / device.height * grid_h).astype(np.int64), 0, grid_h - 1
    )

    if decomposition == "mst":
        pts = np.stack([tx[design.pin_inst], ty[design.pin_inst]], axis=1)
        arr = batched_mst_connections(design.pin_net, pts)
    else:
        pieces: list[np.ndarray] = [np.zeros((0, 4), dtype=np.int64)]
        order = np.argsort(design.pin_net, kind="stable")
        sorted_nets = design.pin_net[order]
        sorted_inst = design.pin_inst[order]
        boundaries = np.searchsorted(
            sorted_nets, np.arange(design.num_nets + 1)
        )
        for net in range(design.num_nets):
            lo, hi = boundaries[net], boundaries[net + 1]
            insts = sorted_inst[lo:hi]
            pts = np.stack([tx[insts], ty[insts]], axis=1)
            pieces.append(decompose_net(pts, mode=decomposition))
        arr = np.concatenate(pieces, axis=0)
    keep = (arr[:, 0] != arr[:, 2]) | (arr[:, 1] != arr[:, 3])
    return arr[keep]


def _pattern_path(
    x0: int, y0: int, x1: int, y1: int, kind: int, bend: int
) -> list[tuple[int, int]]:
    """Materialize a chosen pattern as an explicit tile sequence."""

    def straight(a: tuple[int, int], b: tuple[int, int]) -> list[tuple[int, int]]:
        ax, ay = a
        bx, by = b
        if ax == bx:
            step = 1 if by >= ay else -1
            return [(ax, y) for y in range(ay, by + step, step)]
        step = 1 if bx >= ax else -1
        return [(x, ay) for x in range(ax, bx + step, step)]

    if kind == 0:  # HVH with bend column `bend`
        waypoints = [(x0, y0), (bend, y0), (bend, y1), (x1, y1)]
    else:  # VHV with bend row `bend`
        waypoints = [(x0, y0), (x0, bend), (x1, bend), (x1, y1)]
    path: list[tuple[int, int]] = [waypoints[0]]
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        path.extend(straight(a, b)[1:])
    return path


def _run_diff(
    runs: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    shape: tuple[int, int],
    demand_unit: float,
    axis: int,
) -> np.ndarray:
    """Difference array of straight wire runs along ``axis``.

    Each run ``(a, b, at, mask)`` spans ``min(a, b)..max(a, b)`` along
    ``axis`` at index ``at`` across it, for the connections in ``mask``:
    ``+demand_unit`` lands at its low end, ``-demand_unit`` at its high
    end.  One ``bincount`` adds them in run order, low ends before high
    ends, as a ``np.add.at`` pair per run would.
    """
    flat, weights = [], []
    for a, b, at, mask in runs:
        lo = np.minimum(a, b)[mask]
        hi = np.maximum(a, b)[mask]
        at = at[mask]
        for end, sign in ((lo, 1.0), (hi, -1.0)):
            cell = end * shape[1] + at if axis == 0 else at * shape[1] + end
            flat.append(cell)
            weights.append(np.full(cell.size, sign * demand_unit))
    return np.bincount(
        np.concatenate(flat),
        weights=np.concatenate(weights),
        minlength=shape[0] * shape[1],
    ).reshape(shape)


def _pattern_usage(
    conns: np.ndarray,
    kind: np.ndarray,
    bend: np.ndarray,
    gw: int,
    gh: int,
    demand_unit: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary usage ``(h_use, v_use)`` of connections routed as patterns.

    ``kind`` is 0 for HVH (bend column ``bend``) and 1 for VHV (bend row
    ``bend``).  Each pattern is three straight runs; their ends go into
    one difference array per orientation, whose prefix sum is the usage.
    """
    x0, y0, x1, y1 = conns.T
    hvh = kind == 0
    vhv = ~hvh
    h_diff = _run_diff(
        [(x0, bend, y0, hvh), (bend, x1, y1, hvh), (x0, x1, bend, vhv)],
        (gw + 1, gh), demand_unit, axis=0,
    )
    v_diff = _run_diff(
        [(y0, y1, bend, hvh), (y0, bend, x0, vhv), (bend, y1, x1, vhv)],
        (gw, gh + 1), demand_unit, axis=1,
    )
    h_use = np.cumsum(h_diff, axis=0)[: gw - 1, :]
    v_use = np.cumsum(v_diff, axis=1)[:, : gh - 1]
    return h_use, v_use


class GlobalRouter:
    """Routes a placed design on its device's interconnect tile grid."""

    def __init__(self, design: Design, config: RouterConfig | None = None):
        self.design = design
        self.config = config or RouterConfig()
        device = design.device
        self.grid_w = device.tile_cols
        self.grid_h = device.tile_rows
        self.short_cap = device.short_capacity
        self.global_cap = device.global_capacity

    # -- pattern routing core ---------------------------------------------------

    @staticmethod
    def _h_run_cost(ps: np.ndarray, xa, xb, y):
        """Cost of the horizontal run covering boundaries xa..xb-1 at row y.

        ``ps`` is the prefix sum of horizontal edge costs along axis 0
        (shape ``(grid_w, grid_h)`` with a zero row prepended).
        """
        lo = np.minimum(xa, xb)
        hi = np.maximum(xa, xb)
        return ps[hi, y] - ps[lo, y]

    @staticmethod
    def _v_run_cost(ps: np.ndarray, x, ya, yb):
        lo = np.minimum(ya, yb)
        hi = np.maximum(ya, yb)
        return ps[x, hi] - ps[x, lo]

    def _route_class(
        self,
        conns: np.ndarray,
        cap: float,
        demand_unit: float,
        iterations_used: list[int],
        overuse_log: list[float],
    ) -> tuple[np.ndarray, np.ndarray, bool, float]:
        """Negotiated pattern routing for one wire class.

        Returns ``(h_usage, v_usage, converged, wirelength)``.
        """
        cfg = self.config
        gw, gh = self.grid_w, self.grid_h
        m = conns.shape[0]
        if m == 0:
            return np.zeros((gw - 1, gh)), np.zeros((gw, gh - 1)), True, 0.0

        x0, y0, x1, y1 = conns.T
        xm_mid = (x0 + x1) // 2
        ym_mid = (y0 + y1) // 2
        # Detour bends outside the bounding box: essential for straight
        # (degenerate-box) connections, whose in-box patterns all collapse
        # onto the same path and could never escape congestion.
        x_lo = np.minimum(x0, x1)
        x_hi = np.maximum(x0, x1)
        y_lo = np.minimum(y0, y1)
        y_hi = np.maximum(y0, y1)
        x_bends = [x0, x1, xm_mid] + [
            np.clip(x_lo - d, 0, gw - 1) for d in (1, 2)
        ] + [np.clip(x_hi + d, 0, gw - 1) for d in (1, 2)]
        y_bends = [y0, y1, ym_mid] + [
            np.clip(y_lo - d, 0, gh - 1) for d in (1, 2)
        ] + [np.clip(y_hi + d, 0, gh - 1) for d in (1, 2)]

        hist_h = np.zeros((max(gw - 1, 1), gh))
        hist_v = np.zeros((gw, max(gh - 1, 1)))
        h_use = np.zeros_like(hist_h)
        v_use = np.zeros_like(hist_v)
        converged = False
        rng = np.random.default_rng(cfg.seed)

        # Pattern set: HVH with bend column in {x0, x1, mid} and VHV with
        # bend row in {y0, y1, mid} (L shapes appear twice; harmless).
        for iteration in range(cfg.max_iterations):
            over_h = np.maximum(0.0, h_use - cap)
            over_v = np.maximum(0.0, v_use - cap)
            cost_h = 1.0 + cfg.overflow_penalty * (over_h / cap) ** 2 + hist_h
            cost_v = 1.0 + cfg.overflow_penalty * (over_v / cap) ** 2 + hist_v
            # Prefix sums with a leading zero row/col for O(1) run costs.
            ps_h = np.zeros((gw, gh))
            ps_h[1:, :] = np.cumsum(cost_h, axis=0)
            ps_v = np.zeros((gw, gh))
            ps_v[:, 1:] = np.cumsum(cost_v, axis=1)

            best_cost = np.full(m, np.inf)
            best_kind = np.zeros(m, dtype=np.int64)  # 0: HVH, 1: VHV
            best_bend = np.zeros(m, dtype=np.int64)
            for xm in x_bends:
                cost = (
                    self._h_run_cost(ps_h, x0, xm, y0)
                    + self._v_run_cost(ps_v, xm, y0, y1)
                    + self._h_run_cost(ps_h, xm, x1, y1)
                ) + cfg.jitter * rng.random(m)
                better = cost < best_cost
                best_cost = np.where(better, cost, best_cost)
                best_kind = np.where(better, 0, best_kind)
                best_bend = np.where(better, xm, best_bend)
            for ym in y_bends:
                cost = (
                    self._v_run_cost(ps_v, x0, y0, ym)
                    + self._h_run_cost(ps_h, x0, x1, ym)
                    + self._v_run_cost(ps_v, x1, ym, y1)
                ) + cfg.jitter * rng.random(m)
                better = cost < best_cost
                best_cost = np.where(better, cost, best_cost)
                best_kind = np.where(better, 1, best_kind)
                best_bend = np.where(better, ym, best_bend)

            h_use, v_use = _pattern_usage(
                conns, best_kind, best_bend, gw, gh, demand_unit
            )

            total_overuse = float(
                np.maximum(0.0, h_use - cap).sum()
                + np.maximum(0.0, v_use - cap).sum()
            )
            overuse_log.append(total_overuse)
            iterations_used[0] = max(iterations_used[0], iteration + 1)
            if total_overuse <= 0.0:
                converged = True
                break
            hist_h += cfg.history_gain * np.maximum(0.0, h_use - cap) / cap
            hist_v += cfg.history_gain * np.maximum(0.0, v_use - cap) / cap

        if cfg.maze_fallback and not converged:
            from .maze import MazeRefiner

            paths = [
                _pattern_path(
                    int(x0[k]), int(y0[k]), int(x1[k]), int(y1[k]),
                    int(best_kind[k]), int(best_bend[k]),
                )
                for k in range(m)
            ]
            refiner = MazeRefiner(capacity=cap, demand_unit=demand_unit)
            h_use, v_use, paths, rerouted = refiner.refine(h_use, v_use, paths)
            total_overuse = float(
                np.maximum(0.0, h_use - cap).sum()
                + np.maximum(0.0, v_use - cap).sum()
            )
            overuse_log.append(total_overuse)
            converged = total_overuse <= 0.0

        wirelength = float(h_use.sum() + v_use.sum()) / demand_unit
        return h_use, v_use, converged, wirelength

    # -- public API --------------------------------------------------------------------

    def route(self) -> RoutingResult:
        """Route the design's current placement."""
        cfg = self.config
        conns = _net_connections(
            self.design, self.grid_w, self.grid_h, cfg.decomposition
        )
        if conns.shape[0]:
            manhattan = np.abs(conns[:, 0] - conns[:, 2]) + np.abs(
                conns[:, 1] - conns[:, 3]
            )
            is_long = manhattan > cfg.global_threshold
        else:
            is_long = np.zeros(0, dtype=bool)

        iterations = [0]
        overuse_log: list[float] = []
        h_s, v_s, conv_s, wl_s = self._route_class(
            conns[~is_long], self.short_cap, 1.0, iterations, overuse_log
        )
        h_g, v_g, conv_g, wl_g = self._route_class(
            conns[is_long],
            self.global_cap,
            1.0 / GLOBAL_SPAN,
            iterations,
            overuse_log,
        )
        residual = float(
            np.maximum(0.0, h_s - self.short_cap).sum()
            + np.maximum(0.0, v_s - self.short_cap).sum()
            + np.maximum(0.0, h_g - self.global_cap).sum()
            + np.maximum(0.0, v_g - self.global_cap).sum()
        )
        return RoutingResult(
            h_short=h_s,
            v_short=v_s,
            h_global=h_g,
            v_global=v_g,
            short_capacity=self.short_cap,
            global_capacity=self.global_cap,
            iterations=iterations[0],
            converged=conv_s and conv_g,
            overuse_history=overuse_log,
            num_connections=int(conns.shape[0]),
            total_wirelength=wl_s + wl_g * GLOBAL_SPAN,
            residual_overuse=residual,
        )


def route_design(design: Design, config: RouterConfig | None = None) -> RoutingResult:
    """Route ``design`` at its current placement."""
    return GlobalRouter(design, config).route()
