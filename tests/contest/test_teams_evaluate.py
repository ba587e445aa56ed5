"""Teams and the Table-II harness (mini run at tiny scale)."""

import pytest

from repro.contest import (
    TEAM_NAMES,
    Table2Result,
    ContestScore,
    contest_teams,
    evaluate_team_on_design,
    format_table2,
    run_table2,
)
from repro.models import ModelEstimator, build_model
from repro.placement import GPConfig, RudyEstimator


class TestTeamConstruction:
    def test_four_teams(self):
        teams = contest_teams()
        assert [t.name for t in teams] == list(TEAM_NAMES)

    def test_utda_uses_rudy_single_round(self, tiny_design):
        utda = contest_teams()[0]
        assert isinstance(utda.estimator_factory(tiny_design), RudyEstimator)
        assert utda.placer_config_factory().inflation_rounds == 1

    def test_ours_uses_model_when_given(self, tiny_design):
        model = build_model("unet", "tiny")
        ours = contest_teams(model=model, model_grid=32)[-1]
        estimator = ours.estimator_factory(tiny_design)
        assert isinstance(estimator, ModelEstimator)
        assert estimator.model is model

    def test_ours_falls_back_without_model(self, tiny_design):
        ours = contest_teams()[-1]
        estimator = ours.estimator_factory(tiny_design)
        assert not isinstance(estimator, ModelEstimator)


def _fast_team(team):
    """Shrink a team's placement effort for test speed."""
    original = team.placer_config_factory

    def fast():
        config = original()
        config.gp = GPConfig(bins=16, max_iters=120, seed=config.gp.seed)
        config.stage1_iters = 120
        config.stage2_iters = 30
        return config

    team.placer_config_factory = fast
    return team


class TestEvaluation:
    @pytest.fixture(scope="class")
    def mini_result(self):
        teams = [_fast_team(t) for t in contest_teams()[:2]]
        teams[-1].name = "Ours"  # ratio row needs an "Ours" entry
        return run_table2(
            teams, design_names=("Design_197",), scale=1 / 256
        )

    def test_scores_recorded(self, mini_result):
        assert set(mini_result.scores) == {"UTDA", "Ours"}
        score = mini_result.scores["UTDA"]["Design_197"]
        assert score.s_ir >= 1
        assert score.s_dr >= 4
        assert 0 < score.t_pr_hours < 2.5
        assert score.t_macro_minutes < 10

    def test_averages(self, mini_result):
        avgs = mini_result.averages()
        assert avgs["UTDA"]["S_IR"] >= 1.0

    def test_ratios_reference_is_one(self, mini_result):
        ratios = mini_result.ratios("Ours")
        for col, value in ratios["Ours"].items():
            assert value == pytest.approx(1.0)

    def test_ratios_missing_reference(self):
        result = Table2Result()
        result.add(ContestScore("d", "X", 1, 5, 1.0, 0.5))
        with pytest.raises(KeyError, match="reference"):
            result.ratios("Ours")

    def test_format_contains_rows(self, mini_result):
        table = format_table2(mini_result)
        assert "Design_197" in table
        assert "Average" in table
        assert "Ratio" in table
        assert "S_score" in table

    def test_single_evaluation(self):
        team = _fast_team(contest_teams()[1])
        score = evaluate_team_on_design(team, "Design_120", scale=1 / 256)
        assert score.team == "SEU"
        assert score.design == "Design_120"


class TestTeamSelection:
    def test_unknown_team_raises_before_any_job(self, monkeypatch):
        import repro.orchestrate

        def no_jobs(*args, **kwargs):
            raise AssertionError("a job ran")

        monkeypatch.setattr(repro.orchestrate, "run_jobs", no_jobs)
        with pytest.raises(ValueError, match="Nope"):
            run_table2(
                team_names=("Nope",), design_names=("Design_120",), scale=1 / 256
            )


class TestFormatting:
    def test_missing_design_renders_dashes(self):
        result = Table2Result()
        result.add(ContestScore("Design_A", "Ours", 1, 5, 1.0, 0.5))
        result.add(ContestScore("Design_B", "UTDA", 2, 6, 1.0, 0.5))
        table = format_table2(result)
        assert "--" in table

    def test_averages_per_team_independent(self):
        result = Table2Result()
        result.add(ContestScore("D1", "Ours", 1, 5, 1.0, 0.5))
        result.add(ContestScore("D2", "Ours", 3, 5, 1.0, 0.5))
        avgs = result.averages()
        assert avgs["Ours"]["S_IR"] == 2.0


class TestExport:
    def _result(self):
        result = Table2Result()
        result.add(ContestScore("Design_A", "Ours", 1, 5, 1.0, 0.5))
        result.add(ContestScore("Design_B", "Ours", 2, 6, 1.0, 0.4))
        result.add(ContestScore("Design_A", "UTDA", 3, 7, 1.0, 0.6))
        return result

    def test_rows_flat_and_sorted(self):
        rows = self._result().rows()
        assert len(rows) == 3
        assert {"team", "design", "S_score", "S_R", "T_P&R", "S_IR", "S_DR"} == set(rows[0])

    def test_csv_export(self):
        csv_text = self._result().to_csv()
        assert csv_text.startswith("team,design,")
        assert "Ours,Design_A" in csv_text

    def test_markdown_export(self):
        md = self._result().to_markdown()
        assert md.startswith("| team | design |")
        assert "| Ours | Design_A |" in md
