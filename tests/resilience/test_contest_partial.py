"""Contest evaluation survives per-design failures with a manifest."""

from repro.contest import (
    Table2Result,
    contest_teams,
    format_table2,
    run_table2,
)
from repro.contest.scoring import ContestScore
from repro.orchestrate import RuntimeConfig
from repro.resilience import inject_fault

_DESIGNS = ("Design_116", "Design_120")


def _one_team():
    return [contest_teams()[0]]  # UTDA: RUDY, single inflation round


class TestPartialTable2:
    def test_one_failing_design_yields_partial_scores(self):
        with inject_fault(
            "repro.contest.evaluate:evaluate_team_on_design", nth=2
        ) as fault:
            result = run_table2(
                _one_team(), _DESIGNS, scale=1.0 / 256.0,
                runtime_config=RuntimeConfig(max_attempts=1),
            )
        assert fault.fired
        assert not result.complete
        # The surviving design is scored, the failing one is manifested.
        assert list(result.scores["UTDA"]) == ["Design_116"]
        manifest = result.error_manifest()
        assert [
            (entry["team"], entry["design"]) for entry in manifest
        ] == [("UTDA", "Design_120")]
        # Failures are structured: exception type + traceback tail, not
        # just a display string.
        assert manifest[0]["type"] == "FaultInjected"
        assert "FaultInjected" in manifest[0]["error"]
        assert any("FaultInjected" in line for line in manifest[0]["traceback"])
        # Averages are computed over what survived.
        assert "UTDA" in result.averages()

    def test_format_appends_error_manifest(self):
        result = Table2Result()
        result.add(
            ContestScore(
                design="Design_116", team="UTDA",
                s_ir=100.0, s_dr=10, t_macro_minutes=1.0, t_pr_hours=2.0,
            )
        )
        result.add_error("UTDA", "Design_120", "RuntimeError: boom")
        table = format_table2(result)
        assert "partial results" in table
        assert "Design_120" in table
        assert "RuntimeError: boom" in table

    def test_clean_result_is_complete(self):
        result = Table2Result()
        assert result.complete
        result.add_error("UTDA", "Design_120", "x")
        assert not result.complete

    def test_all_designs_failing_keeps_team_out_of_averages(self):
        result = Table2Result()
        result.add_error("UTDA", "Design_116", "x")
        assert result.averages() == {}
        # format must not crash on a result with errors only.
        assert "partial results" in format_table2(result)
