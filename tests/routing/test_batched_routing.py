"""Batched router paths against the per-net and per-run code they replaced.

* ``batched_mst_connections`` must give the concatenation of per-net
  ``mst_connections`` in ascending net order, row order included.
* ``_pattern_usage`` must give the usage the ``np.add.at`` run pairs
  (``add_h_runs``/``add_v_runs``) built.

Both are compared with ``np.array_equal``, never ``allclose``: the
golden flow run depends on them bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import MLCAD2023_SPECS, generate_design
from repro.routing.router import _net_connections, _pattern_usage
from repro.routing.topology import batched_mst_connections, mst_connections


def _per_net(net: np.ndarray, pts: np.ndarray) -> np.ndarray:
    pieces = [np.zeros((0, 4), dtype=np.int64)]
    for n in np.unique(net):
        pieces.append(mst_connections(pts[net == n]))
    return np.concatenate(pieces)


@st.composite
def _nets(draw):
    """Pins of several nets, interleaved, on a grid small enough for ties."""
    side = draw(st.sampled_from([1, 2, 3, 5, 8, 40]))
    coord = st.one_of(
        st.integers(0, side - 1), st.sampled_from([0, side - 1])  # grid edge
    )
    point = st.tuples(coord, coord)
    net_pins = st.one_of(
        st.lists(point, min_size=2, max_size=16),
        # Every pin on one tile: no connection at all.
        st.builds(lambda p, k: [p] * k, point, st.integers(2, 16)),
    )
    nets = draw(st.lists(net_pins, min_size=1, max_size=10))
    ids = draw(st.permutations(range(2 * len(nets))))[: len(nets)]
    net = np.concatenate([[i] * len(p) for i, p in zip(ids, nets)])
    pts = np.concatenate([np.asarray(p) for p in nets]).astype(np.int64)
    order = np.asarray(draw(st.permutations(range(net.size))), dtype=np.int64)
    return net[order].astype(np.int64), pts[order]


@settings(max_examples=300, deadline=None)
@given(_nets())
def test_batched_mst_matches_per_net(case):
    net, pts = case
    got = batched_mst_connections(net, pts)
    assert got.dtype == np.int64
    assert np.array_equal(got, _per_net(net, pts))


def test_batched_mst_equal_distance_ties():
    # A plus shape: the four arms tie at distance 1 from the centre.
    plus = np.array([[1, 1], [0, 1], [2, 1], [1, 0], [1, 2]])
    net = np.array([3, 3, 3, 3, 3, 0, 0])
    pts = np.concatenate([plus, [[4, 4], [4, 4]]])
    got = batched_mst_connections(net, pts)
    assert got.shape == (4, 4)
    assert np.array_equal(got, _per_net(net, pts))


def test_batched_mst_empty():
    got = batched_mst_connections(np.zeros(0, np.int64), np.zeros((0, 2), np.int64))
    assert got.shape == (0, 4)


@pytest.mark.parametrize("name", ["Design_116", "Design_190"])
def test_net_connections_match_per_net_loop(name):
    design = generate_design(MLCAD2023_SPECS[name], scale=1.0 / 256.0)
    rng = np.random.default_rng(5)
    dev = design.device
    design.set_placement(
        rng.uniform(0, dev.width, design.num_instances),
        rng.uniform(0, dev.height, design.num_instances),
    )
    gw, gh = dev.tile_cols, dev.tile_rows
    tx = np.clip((design.x / dev.width * gw).astype(np.int64), 0, gw - 1)
    ty = np.clip((design.y / dev.height * gh).astype(np.int64), 0, gh - 1)
    pts = np.stack([tx[design.pin_inst], ty[design.pin_inst]], axis=1)
    want = _per_net(design.pin_net, pts)
    want = want[(want[:, 0] != want[:, 2]) | (want[:, 1] != want[:, 3])]
    assert np.array_equal(_net_connections(design, gw, gh), want)


def _reference_usage(conns, best_kind, best_bend, gw, gh, demand_unit):
    """The ``np.add.at`` usage rebuild of the per-run router loop."""
    x0, y0, x1, y1 = conns.T
    h_diff = np.zeros((gw + 1, gh))
    v_diff = np.zeros((gw, gh + 1))
    hvh = best_kind == 0
    vhv = ~hvh

    def add_h_runs(xa, xb, yy, mask):
        lo = np.minimum(xa, xb)[mask]
        hi = np.maximum(xa, xb)[mask]
        rows = yy[mask]
        np.add.at(h_diff, (lo, rows), demand_unit)
        np.add.at(h_diff, (hi, rows), -demand_unit)

    def add_v_runs(xx, ya, yb, mask):
        lo = np.minimum(ya, yb)[mask]
        hi = np.maximum(ya, yb)[mask]
        cols = xx[mask]
        np.add.at(v_diff, (cols, lo), demand_unit)
        np.add.at(v_diff, (cols, hi), -demand_unit)

    add_h_runs(x0, best_bend, y0, hvh)
    add_v_runs(best_bend, y0, y1, hvh)
    add_h_runs(best_bend, x1, y1, hvh)
    add_v_runs(x0, y0, best_bend, vhv)
    add_h_runs(x0, x1, best_bend, vhv)
    add_v_runs(x1, best_bend, y1, vhv)
    h_use = np.cumsum(h_diff, axis=0)[: gw - 1, :]
    v_use = np.cumsum(v_diff, axis=1)[:, : gh - 1]
    return h_use, v_use


@pytest.mark.parametrize("gw,gh", [(2, 2), (7, 13), (24, 24)])
@pytest.mark.parametrize("demand_unit", [1.0, 0.25, 0.1])
@pytest.mark.parametrize("seed", range(3))
def test_pattern_usage_matches_add_at_runs(gw, gh, demand_unit, seed):
    rng = np.random.default_rng(seed)
    m = 500
    conns = np.stack(
        [rng.integers(0, gw, m), rng.integers(0, gh, m),
         rng.integers(0, gw, m), rng.integers(0, gh, m)], axis=1,
    )
    kind = rng.integers(0, 2, m)
    bend = np.where(kind == 0, rng.integers(0, gw, m), rng.integers(0, gh, m))
    got = _pattern_usage(conns, kind, bend, gw, gh, demand_unit)
    want = _reference_usage(conns, kind, bend, gw, gh, demand_unit)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
