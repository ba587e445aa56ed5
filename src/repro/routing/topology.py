"""Net decomposition topologies: MST and single-trunk Steiner trees.

The router splits each multi-pin net into two-pin connections.  The
baseline is a Prim MST over the pin tiles; this module adds the classic
**single-trunk Steiner tree** (a horizontal trunk at the median pin row
with a vertical branch per pin), which inserts Steiner points and often
shortens wide nets.  ``decompose_net(pts, mode="best")`` evaluates both
and keeps the shorter — a lightweight stand-in for FLUTE-style RSMT
construction.

``batched_mst_connections`` builds the MSTs of every net of a design in
one pass (Prim in lockstep over all nets with the same number of unique
tiles) and returns exactly what ``mst_connections`` gives net by net.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mst_connections",
    "batched_mst_connections",
    "trunk_steiner_connections",
    "connections_length",
    "decompose_net",
    "DECOMPOSITIONS",
]

DECOMPOSITIONS = ("mst", "stst", "best")


def connections_length(conns: np.ndarray) -> float:
    """Total manhattan length of a two-pin connection list."""
    if conns.size == 0:
        return 0.0
    return float(
        (np.abs(conns[:, 0] - conns[:, 2]) + np.abs(conns[:, 1] - conns[:, 3])).sum()
    )


def mst_connections(pts: np.ndarray) -> np.ndarray:
    """Prim MST over unique points; returns an ``(k-1, 4)`` edge array."""
    pts = np.unique(np.asarray(pts, dtype=np.int64), axis=0)
    k = pts.shape[0]
    if k < 2:
        return np.zeros((0, 4), dtype=np.int64)
    conns = []
    in_tree = np.zeros(k, dtype=bool)
    in_tree[0] = True
    dist = np.abs(pts[:, 0] - pts[0, 0]) + np.abs(pts[:, 1] - pts[0, 1])
    parent = np.zeros(k, dtype=np.int64)
    for _ in range(k - 1):
        masked = np.where(in_tree, np.iinfo(np.int64).max, dist)
        nxt = int(np.argmin(masked))
        in_tree[nxt] = True
        p = int(parent[nxt])
        conns.append((pts[p, 0], pts[p, 1], pts[nxt, 0], pts[nxt, 1]))
        nd = np.abs(pts[:, 0] - pts[nxt, 0]) + np.abs(pts[:, 1] - pts[nxt, 1])
        closer = nd < dist
        dist = np.where(closer, nd, dist)
        parent = np.where(closer, nxt, parent)
    return np.asarray(conns, dtype=np.int64)


def _prim_lockstep(pts: np.ndarray) -> np.ndarray:
    """Prim MSTs of ``G`` point sets of equal size ``k``, stepped together.

    ``pts`` is ``(G, k, 2)`` with unique rows per set.  Every set follows
    the exact steps of :func:`mst_connections` (``argmin`` keeps its
    first-index tie-break), so ``out[g]`` equals its edge array.
    """
    g, k, _ = pts.shape
    rows = np.arange(g)
    xs, ys = pts[:, :, 0], pts[:, :, 1]
    in_tree = np.zeros((g, k), dtype=bool)
    in_tree[:, 0] = True
    dist = np.abs(xs - xs[:, :1]) + np.abs(ys - ys[:, :1])
    parent = np.zeros((g, k), dtype=np.int64)
    out = np.empty((g, k - 1, 4), dtype=np.int64)
    for step in range(k - 1):
        masked = np.where(in_tree, np.iinfo(np.int64).max, dist)
        nxt = np.argmin(masked, axis=1)
        in_tree[rows, nxt] = True
        p = parent[rows, nxt]
        nx, ny = xs[rows, nxt], ys[rows, nxt]
        out[:, step] = np.stack([xs[rows, p], ys[rows, p], nx, ny], axis=1)
        nd = np.abs(xs - nx[:, None]) + np.abs(ys - ny[:, None])
        closer = nd < dist
        dist = np.where(closer, nd, dist)
        parent = np.where(closer, nxt[:, None], parent)
    return out


def batched_mst_connections(net: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Prim MSTs of all nets at once.

    ``net[i]`` is the net of pin ``i`` and ``pts[i]`` its tile.  Returns
    the ``mst_connections`` edges of every net, concatenated in ascending
    net order: the same array, row order included, as the per-net loop.
    One ``lexsort`` over ``(net, x, y)`` with repeated rows dropped does
    every net's ``np.unique(axis=0)``; nets with the same number of
    unique tiles then run :func:`_prim_lockstep` together.
    """
    net = np.asarray(net, dtype=np.int64)
    pts = np.asarray(pts, dtype=np.int64)
    if net.size == 0:
        return np.zeros((0, 4), dtype=np.int64)
    order = np.lexsort((pts[:, 1], pts[:, 0], net))
    net, pts = net[order], pts[order]
    fresh = np.ones(net.size, dtype=bool)
    fresh[1:] = (net[1:] != net[:-1]) | np.any(pts[1:] != pts[:-1], axis=1)
    net, pts = net[fresh], pts[fresh]

    starts = np.flatnonzero(np.r_[True, net[1:] != net[:-1]])
    sizes = np.diff(np.r_[starts, net.size])
    offsets = np.r_[0, np.cumsum(sizes - 1)]
    out = np.empty((int(offsets[-1]), 4), dtype=np.int64)
    for k in np.unique(sizes[sizes >= 2]):
        runs = np.flatnonzero(sizes == k)
        edges = _prim_lockstep(pts[starts[runs][:, None] + np.arange(k)])
        out[offsets[runs][:, None] + np.arange(k - 1)] = edges
    return out


def trunk_steiner_connections(pts: np.ndarray) -> np.ndarray:
    """Single-trunk Steiner tree: horizontal trunk at the median row.

    Each pin hangs off the trunk by a vertical branch at its own column;
    the trunk is split into segments between consecutive branch columns.
    Steiner points (column, trunk-row) appear as connection endpoints.
    """
    pts = np.unique(np.asarray(pts, dtype=np.int64), axis=0)
    k = pts.shape[0]
    if k < 2:
        return np.zeros((0, 4), dtype=np.int64)
    trunk_y = int(np.median(pts[:, 1]))
    columns = np.unique(pts[:, 0])
    conns: list[tuple[int, int, int, int]] = []
    # Trunk segments between consecutive branch columns.
    for xa, xb in zip(columns[:-1], columns[1:]):
        conns.append((int(xa), trunk_y, int(xb), trunk_y))
    # Vertical branches from each pin to the trunk.
    for x, y in pts:
        if y != trunk_y:
            conns.append((int(x), int(y), int(x), trunk_y))
    return np.asarray(conns, dtype=np.int64)


def decompose_net(pts: np.ndarray, mode: str = "mst") -> np.ndarray:
    """Two-pin connections for a net's pin tiles under ``mode``.

    ``mode="best"`` evaluates MST and single-trunk Steiner and returns
    the shorter decomposition.
    """
    if mode not in DECOMPOSITIONS:
        raise ValueError(f"unknown decomposition {mode!r}; use one of {DECOMPOSITIONS}")
    if mode == "mst":
        return mst_connections(pts)
    if mode == "stst":
        return trunk_steiner_connections(pts)
    mst = mst_connections(pts)
    stst = trunk_steiner_connections(pts)
    if connections_length(stst) < connections_length(mst):
        return stst
    return mst
