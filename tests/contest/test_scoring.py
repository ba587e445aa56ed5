"""Contest scoring equations (Eqs. 1-3) against hand-computed values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.contest import (
    ContestScore,
    final_score,
    initial_routing_score,
    routability_score,
)
from repro.routing import CongestionReport


def _report(short_levels, global_levels, gw=4, gh=4):
    """Build a report whose per-direction maxima are as given."""
    short = np.zeros((4, gw, gh), dtype=np.int64)
    glob = np.zeros((4, gw, gh), dtype=np.int64)
    for d in range(4):
        short[d, 0, 0] = short_levels[d]
        glob[d, 0, 0] = global_levels[d]
    return CongestionReport(
        short_levels=short,
        global_levels=glob,
        level_map=np.maximum(short.max(axis=0), glob.max(axis=0)),
    )


class TestEq1:
    def test_no_congestion_gives_one(self):
        report = _report([0, 0, 0, 0], [0, 0, 0, 0])
        assert initial_routing_score(report) == 1

    def test_level_three_not_penalized(self):
        report = _report([3, 3, 3, 3], [3, 3, 3, 3])
        assert initial_routing_score(report) == 1

    def test_level_four_quadratic(self):
        report = _report([4, 0, 0, 0], [0, 0, 0, 0])
        assert initial_routing_score(report) == 1 + 1

    def test_level_seven(self):
        report = _report([7, 0, 0, 0], [0, 0, 0, 0])
        assert initial_routing_score(report) == 1 + 16

    def test_all_directions_and_classes_summed(self):
        report = _report([5, 4, 5, 4], [4, 4, 4, 4])
        # short: 4+1+4+1 = 10; global: 4x1 = 4.
        assert initial_routing_score(report) == 15

    def test_paper_like_value(self):
        """Ours on Design_116 (Table II): S_IR=5 -> e.g. one dir at 5."""
        report = _report([5, 0, 0, 0], [0, 0, 0, 0])
        assert initial_routing_score(report) == 5


class TestEq1Monotonicity:
    """Raising one tile's level never lowers S_IR, and raises it exactly
    when the tile becomes its direction's new maximum above level 3."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_raising_one_tile_level(self, data):
        gw, gh = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        # Axis 0 is the wire class (short, global), axis 1 the direction.
        levels = data.draw(
            hnp.arrays(np.int64, (2, 4, gw, gh), elements=st.integers(0, 7))
        )
        tile = tuple(
            data.draw(st.integers(0, n - 1), label=name)
            for n, name in zip(levels.shape, ("wire", "direction", "x", "y"))
        )
        raised = levels.copy()
        raised[tile] = data.draw(st.integers(int(levels[tile]), 7), label="level")

        def s_ir(lv):
            return initial_routing_score(CongestionReport(
                short_levels=lv[0],
                global_levels=lv[1],
                level_map=lv.max(axis=(0, 1)),
            ))

        before, after = s_ir(levels), s_ir(raised)
        assert after >= before
        new_max = raised[tile] > max(3, levels[tile[:2]].max())
        assert (after > before) == new_max


class TestEq2Eq3:
    def test_routability_product(self):
        assert routability_score(5, 9) == 45.0

    def test_final_score_no_macro_penalty(self):
        # Table II, Ours/Design_116: S_R=45, T_P&R=0.64 -> 28.8.
        assert final_score(45.0, t_macro_minutes=5.0, t_pr_hours=0.64) == (
            pytest.approx(28.8)
        )

    def test_macro_runtime_penalty(self):
        assert final_score(10.0, t_macro_minutes=12.0, t_pr_hours=1.0) == (
            pytest.approx(30.0)
        )

    def test_penalty_kicks_in_after_10_minutes(self):
        assert final_score(10.0, 10.0, 1.0) == pytest.approx(10.0)
        assert final_score(10.0, 10.1, 1.0) > 10.0


class TestContestScore:
    def test_properties(self):
        score = ContestScore(
            design="Design_116", team="Ours", s_ir=5, s_dr=9,
            t_macro_minutes=4.0, t_pr_hours=0.64,
        )
        assert score.s_r == 45.0
        assert score.s_score == pytest.approx(28.8)

    def test_row_columns_match_table2(self):
        score = ContestScore("d", "t", 2, 7, 1.0, 0.43)
        row = score.row()
        assert set(row) == {"S_score", "S_R", "T_P&R", "S_IR", "S_DR"}
        assert row["S_R"] == 14.0
        assert row["S_score"] == pytest.approx(6.02)
