"""Grid-based input features (Section III-B).

Six maps are extracted from a placement, each on a ``grid × grid`` bin
grid over the device:

* **Macro map** — fraction of each grid cell occupied by macros.
* **Horizontal / vertical net density** — per-bin expected horizontal /
  vertical routing demand: every net spreads ``1/h_bins`` (horizontal)
  and ``1/w_bins`` (vertical) demand uniformly over its bounding box.
* **RUDY** — the classic Rectangular Uniform wire DensitY [3]: the
  superposition of horizontal and vertical net density.
* **Pin RUDY** — per-bin pin density of all nets: each net spreads its
  pin count uniformly over its bounding box.
* **Cell density** — LUT-demand per bin, normalized by bin CLB capacity.

All rectangle accumulations use the 2-D difference-array trick (corner
updates + cumulative sums) so extraction is O(#nets + grid²).

Maps are normalized by physically meaningful constants (routing/site
capacity per bin) so values are comparable across designs — the paper
trains one model over ten designs, which requires exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch import ResourceType, SiteType
from ..netlist import Design

__all__ = [
    "FEATURE_NAMES",
    "FeatureExtractor",
    "extract_features",
    "resize_map",
]

FEATURE_NAMES = (
    "macro_map",
    "h_net_density",
    "v_net_density",
    "rudy",
    "pin_rudy",
    "cell_density",
)


def _scatter_add(grid: int, x: np.ndarray, y: np.ndarray, values) -> np.ndarray:
    """Vectorized add-scatter onto a ``grid × grid`` map, float32 output.

    ``np.bincount`` over flattened bin indices replaces ``np.add.at``:
    the buffered one-pass accumulation is several times faster than the
    unbuffered per-element ``ufunc.at`` path.  bincount accumulates in
    float64 — welcome extra headroom — and the result is narrowed once
    at the end.
    """
    flat = np.bincount(x * grid + y, weights=values, minlength=grid * grid)
    # ``weights=None`` counts occurrences (ints); both paths narrow here.
    return flat.reshape(grid, grid).astype(np.float32)


def _rect_accumulate(
    grid: int,
    x0: np.ndarray,
    x1: np.ndarray,
    y0: np.ndarray,
    y1: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """Add ``values[k]`` to every bin of rectangle ``[x0..x1] × [y0..y1]``."""
    size = grid + 1
    corners_x = np.concatenate([x0, x1 + 1, x0, x1 + 1])
    corners_y = np.concatenate([y0, y0, y1 + 1, y1 + 1])
    signed = np.concatenate([values, -values, -values, values])
    # bincount accumulates in float64 — the headroom keeps the cumsum
    # cancellation exact; only the returned map narrows to float32.
    flat = np.bincount(
        corners_x * size + corners_y, weights=signed, minlength=size * size
    )
    diff = flat.reshape(size, size)
    out = diff.cumsum(axis=0).cumsum(axis=1)[:grid, :grid]
    # Cumulative-sum cancellation can leave ~1e-16 negatives; clamp them.
    return np.maximum(out, 0.0).astype(np.float32)


def resize_map(data: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resize of a 2-D map (used to match the model's H×W)."""
    in_w, in_h = data.shape
    if (in_w, in_h) == (out_w, out_h):
        return data.copy()
    # Interpolation weights follow the map's dtype: float64 weights on a
    # float32 map would silently widen every product below.
    dt = data.dtype if data.dtype.kind == "f" else np.dtype(np.float32)
    x = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    y = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    x = np.clip(x, 0, in_w - 1)
    y = np.clip(y, 0, in_h - 1)
    x0 = np.clip(x.astype(np.int64), 0, in_w - 2) if in_w > 1 else np.zeros(out_w, np.int64)
    y0 = np.clip(y.astype(np.int64), 0, in_h - 2) if in_h > 1 else np.zeros(out_h, np.int64)
    fx = (x - x0).astype(dt) if in_w > 1 else np.zeros(out_w, dtype=dt)
    fy = (y - y0).astype(dt) if in_h > 1 else np.zeros(out_h, dtype=dt)
    x1 = np.minimum(x0 + 1, in_w - 1)
    y1 = np.minimum(y0 + 1, in_h - 1)
    a = data[np.ix_(x0, y0)] * (1 - fx)[:, None] * (1 - fy)[None, :]
    b = data[np.ix_(x1, y0)] * fx[:, None] * (1 - fy)[None, :]
    c = data[np.ix_(x0, y1)] * (1 - fx)[:, None] * fy[None, :]
    d = data[np.ix_(x1, y1)] * fx[:, None] * fy[None, :]
    return a + b + c + d


@dataclass
class FeatureExtractor:
    """Extracts the six Section III-B feature maps from a placement.

    Parameters
    ----------
    grid:
        Bin-grid resolution (the paper resizes everything to 256×256;
        benches default to the interconnect tile grid size).
    """

    grid: int = 64

    def __call__(
        self, design: Design, x: np.ndarray | None = None, y: np.ndarray | None = None
    ) -> np.ndarray:
        """Return a ``(6, grid, grid)`` feature stack for the placement."""
        if x is None:
            x = design.x
        if y is None:
            y = design.y
        g = self.grid
        device = design.device
        bx = np.clip((x / device.width * g).astype(np.int64), 0, g - 1)
        by = np.clip((y / device.height * g).astype(np.int64), 0, g - 1)

        # -- macro map -----------------------------------------------------
        macros = design.macro_indices()
        macro_map = _scatter_add(g, bx[macros], by[macros], None)
        sites_per_bin = (device.num_cols / g) * (device.num_rows / g)
        macro_map = np.minimum(macro_map / max(sites_per_bin, 1.0), 1.0)

        # -- net bounding boxes ------------------------------------------------
        px = bx[design.pin_inst]
        py = by[design.pin_inst]
        num = design.num_nets
        nx0 = np.full(num, g, dtype=np.int64)
        nx1 = np.full(num, -1, dtype=np.int64)
        ny0 = np.full(num, g, dtype=np.int64)
        ny1 = np.full(num, -1, dtype=np.int64)
        np.minimum.at(nx0, design.pin_net, px)
        np.maximum.at(nx1, design.pin_net, px)
        np.minimum.at(ny0, design.pin_net, py)
        np.maximum.at(ny1, design.pin_net, py)
        w_bins = (nx1 - nx0 + 1).astype(np.float32)
        h_bins = (ny1 - ny0 + 1).astype(np.float32)

        # Horizontal demand: each net needs ~1 horizontal track across its
        # box height; spread uniformly -> 1/h per bin (and v: 1/w).
        h_density = _rect_accumulate(g, nx0, nx1, ny0, ny1, 1.0 / h_bins)
        v_density = _rect_accumulate(g, nx0, nx1, ny0, ny1, 1.0 / w_bins)
        rudy = h_density + v_density

        # -- pin RUDY ---------------------------------------------------------
        pins_per_net = design.net_degrees.astype(np.float32)
        pin_rudy = _rect_accumulate(
            g, nx0, nx1, ny0, ny1, pins_per_net / (w_bins * h_bins)
        )

        # -- cell density -------------------------------------------------------
        lut_col = list(ResourceType).index(ResourceType.LUT)
        lut_demand = design.demand_matrix[:, lut_col]
        cell_density = _scatter_add(g, bx, by, lut_demand)
        clb_cols = device.columns_of_type(SiteType.CLB).size
        lut_capacity_per_bin = (
            device.resource_capacity(ResourceType.LUT) / (g * g)
            if clb_cols
            else 1.0
        )
        cell_density = cell_density / max(lut_capacity_per_bin, 1e-9)

        # -- normalization of routing-demand maps ----------------------------------
        # One short wire per tile boundary is the natural demand unit; the
        # per-bin track budget normalizes H/V density and RUDY.
        tiles_per_bin = max(
            (device.tile_cols / g) * (device.tile_rows / g), 1e-9
        )
        track_budget = device.short_capacity * tiles_per_bin
        h_density = h_density / track_budget
        v_density = v_density / track_budget
        rudy = rudy / (2.0 * track_budget)
        pin_rudy = pin_rudy / (4.0 * track_budget)

        return np.stack(
            [macro_map, h_density, v_density, rudy, pin_rudy, cell_density]
        )

    def resized(
        self,
        design: Design,
        out: int,
        x: np.ndarray | None = None,
        y: np.ndarray | None = None,
    ) -> np.ndarray:
        """Features resized to ``(6, out, out)`` (paper: 256×256)."""
        stack = self(design, x, y)
        return np.stack([resize_map(m, out, out) for m in stack])


def extract_features(
    design: Design,
    grid: int = 64,
    x: np.ndarray | None = None,
    y: np.ndarray | None = None,
) -> np.ndarray:
    """Convenience wrapper around :class:`FeatureExtractor`."""
    return FeatureExtractor(grid=grid)(design, x, y)
