"""End-to-end report, baseline diffing, registry and CLI integration."""

import copy
import json

import pytest

from repro.cli import main as cli_main
from repro.ir import (
    SCHEMA,
    analyze_model,
    analyze_registry,
    baseline_from_reports,
    check_baseline,
)


@pytest.fixture(scope="module")
def bundle():
    return analyze_registry(("unet", "pros2"), preset="tiny", grids=(64,))


class TestReport:
    def test_schema_and_shape(self, bundle):
        assert bundle["schema"] == SCHEMA
        report = bundle["reports"][0]
        for key in ("graph", "cost", "stability", "failures"):
            assert key in report
        assert report["model"] == "unet"
        assert report["grid"] == 64

    def test_json_serializable(self, bundle):
        json.dumps(bundle)

    def test_registry_models_have_no_failures(self, bundle):
        for report in bundle["reports"]:
            assert report["failures"] == [], report["failures"]

    def test_analyze_model_single(self):
        report = analyze_model("unet", preset="tiny", grid=64)
        assert report["cost"]["total_flops"] > 0
        assert report["graph"]["nodes"] > 0


class TestBaseline:
    def test_round_trip_clean(self, bundle):
        baseline = baseline_from_reports(bundle)
        assert check_baseline(bundle, baseline) == []

    def test_flop_drift_detected(self, bundle):
        baseline = copy.deepcopy(baseline_from_reports(bundle))
        baseline["entries"][0]["total_flops"] += 1000
        problems = check_baseline(bundle, baseline)
        assert len(problems) == 1
        assert "total_flops" in problems[0]

    def test_missing_entry_detected(self, bundle):
        baseline = copy.deepcopy(baseline_from_reports(bundle))
        dropped = baseline["entries"].pop()
        problems = check_baseline(bundle, baseline)
        assert any(dropped["model"] in p for p in problems)

    def test_checked_in_baseline_matches_head(self):
        """benchmarks/ir_baseline.json must describe the current code."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "benchmarks" / "ir_baseline.json"
        baseline = json.loads(path.read_text())
        grids = sorted({e["grid"] for e in baseline["entries"]})
        models = tuple(dict.fromkeys(e["model"] for e in baseline["entries"]))
        current = analyze_registry(models, preset="fast", grids=tuple(grids))
        assert check_baseline(current, baseline) == []


class TestIntegration:
    def test_cli_analyze(self, capsys):
        rc = cli_main(["analyze", "unet", "--preset", "tiny", "--grid", "64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "flops:" in out and "hottest layers:" in out

    def test_cli_analyze_json(self, capsys):
        rc = cli_main(["analyze", "unet", "--preset", "tiny", "--grid", "64",
                       "--json"])
        assert rc == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["schema"] == SCHEMA

    def test_cli_baseline_cycle(self, tmp_path, capsys):
        path = tmp_path / "base.json"
        assert cli_main(["analyze", "unet", "--preset", "tiny", "--grid", "64",
                         "--update-baseline", str(path)]) == 0
        capsys.readouterr()
        assert cli_main(["analyze", "unet", "--preset", "tiny", "--grid", "64",
                         "--check-baseline", str(path)]) == 0
        # A different grid must be reported as drift (EXIT_DRIFT, not
        # the blocking-findings code — see the table in docs/API.md).
        assert cli_main(["analyze", "unet", "--preset", "tiny", "--grid", "128",
                         "--check-baseline", str(path)]) == 3
        assert "baseline drift" in capsys.readouterr().err
