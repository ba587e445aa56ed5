"""Router invariants: usage is exactly the sum of the routed paths.

Every two-pin connection from the decomposition must be realized, by
the pattern router and after the maze fallback alike, and the usage
arrays the router reports must be what its paths add up to.
"""

import numpy as np

import repro.routing.router as router_mod
from repro.routing import GlobalRouter, MazeRefiner, RouterConfig, path_edges
from repro.routing.router import _net_connections, _pattern_path, _pattern_usage


def _manhattan(conns: np.ndarray) -> np.ndarray:
    return np.abs(conns[:, 0] - conns[:, 2]) + np.abs(conns[:, 1] - conns[:, 3])


def _short_connections(router: GlobalRouter) -> np.ndarray:
    conns = _net_connections(router.design, router.grid_w, router.grid_h)
    return conns[_manhattan(conns) <= router.config.global_threshold]


def _usage_of(paths, gw: int, gh: int, demand_unit: float):
    h_use = np.zeros((gw - 1, gh))
    v_use = np.zeros((gw, gh - 1))
    for path in paths:
        h_edges, v_edges = path_edges(path)
        for e in h_edges:
            h_use[e] += demand_unit
        for e in v_edges:
            v_use[e] += demand_unit
    return h_use, v_use


def _assert_connects(paths, conns: np.ndarray) -> None:
    """Each path runs from its connection's first tile to its second in
    unit steps."""
    assert len(paths) == conns.shape[0]
    for path, (x0, y0, x1, y1) in zip(paths, conns.tolist()):
        assert (path[0], path[-1]) == ((x0, y0), (x1, y1))
        steps = np.abs(np.diff(np.asarray(path), axis=0)).sum(axis=1)
        assert np.all(steps == 1)


def test_pattern_usage_is_the_sum_of_the_routed_paths(
    placed_tiny_design, monkeypatch
):
    calls = []

    def spy(conns, kind, bend, gw, gh, demand_unit):
        calls.append((conns, kind, bend, demand_unit))
        return _pattern_usage(conns, kind, bend, gw, gh, demand_unit)

    monkeypatch.setattr(router_mod, "_pattern_usage", spy)
    router = GlobalRouter(placed_tiny_design, RouterConfig(maze_fallback=False))
    result = router.route()
    conns, kind, bend, _ = [c for c in calls if c[3] == 1.0][-1]

    # Every short connection of the decomposition is routed ...
    np.testing.assert_array_equal(conns, _short_connections(router))
    paths = [_pattern_path(*c, k, b) for c, k, b in
             zip(conns.tolist(), kind.tolist(), bend.tolist())]
    _assert_connects(paths, conns)
    # ... and the short usage is exactly what the chosen paths add up to.
    h_use, v_use = _usage_of(paths, router.grid_w, router.grid_h, 1.0)
    np.testing.assert_array_equal(h_use, result.h_short)
    np.testing.assert_array_equal(v_use, result.v_short)
    # Bends may detour outside the bounding box, so a path is never
    # shorter than its Manhattan distance and longer only by an even
    # number of steps (out and back).
    extra = np.array([len(p) - 1 for p in paths]) - _manhattan(conns)
    assert np.all(extra >= 0) and np.all(extra % 2 == 0)
    assert result.h_short.sum() + result.v_short.sum() == _manhattan(conns).sum() + extra.sum()


def test_maze_refine_keeps_every_connection_and_its_usage(placed_tiny_design):
    router = GlobalRouter(placed_tiny_design)
    gw, gh = router.grid_w, router.grid_h
    conns = _short_connections(router)
    rng = np.random.default_rng(0)
    kind = rng.integers(0, 2, conns.shape[0])
    bend = np.where(kind == 0, conns[:, 0], conns[:, 1])  # L shapes
    h_use, v_use = _pattern_usage(conns, kind, bend, gw, gh, 1.0)
    paths = [_pattern_path(*c, k, b) for c, k, b in
             zip(conns.tolist(), kind.tolist(), bend.tolist())]

    # Half the peak usage as capacity leaves overused boundaries to clear.
    refiner = MazeRefiner(capacity=max(h_use.max(), v_use.max()) / 2)
    h_new, v_new, new_paths, rerouted = refiner.refine(h_use, v_use, paths)
    assert rerouted > 0
    _assert_connects(new_paths, conns)
    rebuilt = _usage_of(new_paths, gw, gh, 1.0)
    np.testing.assert_array_equal(rebuilt[0], h_new)
    np.testing.assert_array_equal(rebuilt[1], v_new)
