"""A* maze routing and the rip-up refiner."""

import numpy as np
import pytest

from repro.routing import MazeRefiner, RouterConfig, astar_route, path_edges, route_design
from repro.routing.router import _pattern_path


def _uniform_costs(gw=8, gh=8, value=1.0):
    return np.full((gw - 1, gh), value), np.full((gw, gh - 1), value)


class TestAStar:
    def test_trivial(self):
        cost_h, cost_v = _uniform_costs()
        assert astar_route(cost_h, cost_v, (2, 2), (2, 2)) == [(2, 2)]

    def test_straight_line(self):
        cost_h, cost_v = _uniform_costs()
        path = astar_route(cost_h, cost_v, (0, 3), (5, 3))
        assert path[0] == (0, 3) and path[-1] == (5, 3)
        assert len(path) == 6  # optimal: 5 steps

    def test_manhattan_optimal_on_uniform_costs(self):
        cost_h, cost_v = _uniform_costs()
        path = astar_route(cost_h, cost_v, (0, 0), (4, 6))
        assert len(path) == 1 + 4 + 6

    def test_detours_around_expensive_wall(self):
        cost_h, cost_v = _uniform_costs()
        # Make the direct row prohibitively expensive.
        cost_h[:, 3] = 100.0
        path = astar_route(cost_h, cost_v, (0, 3), (6, 3))
        # The route must leave row 3 somewhere.
        rows = {y for _, y in path}
        assert rows != {3}

    def test_unit_steps_only(self):
        cost_h, cost_v = _uniform_costs()
        path = astar_route(cost_h, cost_v, (1, 1), (5, 5))
        for (x0, y0), (x1, y1) in zip(path[:-1], path[1:]):
            assert abs(x0 - x1) + abs(y0 - y1) == 1


class TestPathEdges:
    def test_l_shape(self):
        path = [(0, 0), (1, 0), (2, 0), (2, 1)]
        h, v = path_edges(path)
        assert h == [(0, 0), (1, 0)]
        assert v == [(2, 0)]

    def test_reverse_direction_normalized(self):
        h, v = path_edges([(3, 0), (2, 0)])
        assert h == [(2, 0)]

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            path_edges([(0, 0), (1, 1)])


class TestPatternPath:
    def test_hvh(self):
        path = _pattern_path(0, 0, 3, 2, kind=0, bend=1)
        assert path[0] == (0, 0) and path[-1] == (3, 2)
        h, v = path_edges(path)
        assert len(h) + len(v) == 3 + 2  # manhattan length

    def test_vhv_with_detour_bend(self):
        path = _pattern_path(0, 2, 4, 2, kind=1, bend=5)
        assert path[0] == (0, 2) and path[-1] == (4, 2)
        assert (2, 5) in path  # actually visits the detour row

    def test_degenerate_straight(self):
        path = _pattern_path(2, 2, 2, 2, kind=0, bend=2)
        assert path == [(2, 2)]


class TestMazeRefiner:
    def test_noop_when_no_overflow(self):
        h_use, v_use = np.zeros((7, 8)), np.zeros((8, 7))
        refiner = MazeRefiner(capacity=4.0)
        h2, v2, paths, n = refiner.refine(h_use, v_use, [[(0, 0), (1, 0)]])
        assert n == 0
        np.testing.assert_allclose(h2, h_use)

    def test_spreads_overused_bundle(self):
        """Six identical straight paths over capacity 4 must split."""
        gw = gh = 8
        paths = [[(0, 3), (1, 3), (2, 3), (3, 3), (4, 3)] for _ in range(6)]
        h_use = np.zeros((gw - 1, gh))
        v_use = np.zeros((gw, gh - 1))
        for p in paths:
            for e in path_edges(p)[0]:
                h_use[e] += 1.0
        assert h_use.max() == 6.0
        refiner = MazeRefiner(capacity=4.0)
        h2, v2, new_paths, n = refiner.refine(h_use, v_use, paths)
        assert n > 0
        assert h2.max() <= 4.0 + 1e-9
        # Usage stays consistent with the returned paths.
        rebuilt_h = np.zeros_like(h_use)
        rebuilt_v = np.zeros_like(v_use)
        for p in new_paths:
            he, ve = path_edges(p)
            for e in he:
                rebuilt_h[e] += 1.0
            for e in ve:
                rebuilt_v[e] += 1.0
        np.testing.assert_allclose(rebuilt_h, h2)
        np.testing.assert_allclose(rebuilt_v, v2)

    def test_endpoints_preserved(self):
        paths = [[(0, 3), (1, 3), (2, 3)] for _ in range(9)]
        h_use = np.zeros((7, 8))
        v_use = np.zeros((8, 7))
        for p in paths:
            for e in path_edges(p)[0]:
                h_use[e] += 1.0
        refiner = MazeRefiner(capacity=4.0)
        _, _, new_paths, _ = refiner.refine(h_use, v_use, paths)
        for p in new_paths:
            assert p[0] == (0, 3) and p[-1] == (2, 3)

    def test_refiner_never_mutates_caller_usage(self):
        paths = [[(0, 3), (1, 3), (2, 3), (3, 3), (4, 3)] for _ in range(6)]
        h_use = np.zeros((7, 8))
        v_use = np.zeros((8, 7))
        for p in paths:
            for e in path_edges(p)[0]:
                h_use[e] += 1.0
        h_snap, v_snap = h_use.copy(), v_use.copy()
        paths_snap = [list(p) for p in paths]

        h2, v2, new_paths, n = MazeRefiner(capacity=4.0).refine(
            h_use, v_use, paths
        )
        assert n > 0  # the overflowing case actually reroutes
        np.testing.assert_array_equal(h_use, h_snap)
        np.testing.assert_array_equal(v_use, v_snap)
        assert paths == paths_snap
        # And the results are writable without touching the inputs.
        h2 += 1.0
        np.testing.assert_array_equal(h_use, h_snap)

    def test_refiner_noop_path_allocates_nothing(self):
        h_use = np.zeros((7, 8))
        v_use = np.zeros((8, 7))
        h2, v2, _, n = MazeRefiner(capacity=4.0).refine(
            h_use, v_use, [[(0, 0), (1, 0)]]
        )
        assert n == 0
        # No overflow -> the usage maps pass through uncopied.
        assert h2 is h_use and v2 is v_use


class TestRouterIntegration:
    def test_maze_fallback_never_increases_overuse(self, placed_tiny_design):
        base = route_design(
            placed_tiny_design, RouterConfig(maze_fallback=False)
        )
        refined = route_design(
            placed_tiny_design, RouterConfig(maze_fallback=True)
        )
        assert refined.residual_overuse <= base.residual_overuse + 1e-9

    def test_maze_fallback_is_default(self):
        assert RouterConfig().maze_fallback
