"""Model certification reports, shadow verdicts and the baseline
discipline (deterministic slice, drift detection, byte stability)."""

import json
from types import SimpleNamespace

import pytest

from repro.numcheck import (
    SCHEMA,
    baseline_from_numcheck,
    check_numcheck_baseline,
    has_blocking,
    numcheck,
    numcheck_model,
)
from repro.numcheck.report import _MEASURED_CODES, _shadow_verdict


@pytest.fixture(scope="module")
def unet_report():
    return numcheck_model(
        "unet", preset="tiny", grids=(32,), measure=True
    )


class TestModelReport:
    def test_schema_and_structure(self, unet_report):
        assert unet_report["schema"] == SCHEMA
        assert unet_report["model"] == "unet"
        doc = unet_report["grids"]["32"]
        for key in (
            "forward_rel", "backward_rel", "forward_abs", "grad_bounds",
            "measured",
        ):
            assert key in doc, key

    def test_certifies_within_default_budget(self, unet_report):
        assert not any(f["blocking"] for f in unet_report["findings"])
        doc = unet_report["grids"]["32"]
        assert 0.0 < doc["forward_rel"] < 1.0
        assert doc["backward_rel"] > 0.0
        assert doc["unsupported"] == []

    def test_shadow_measured_below_certificate(self, unet_report):
        # No REPRO809: the envelope is sound against the measured run.
        codes = [f["code"] for f in unet_report["findings"]]
        assert "REPRO809" not in codes
        doc = unet_report["grids"]["32"]
        assert doc["measured"]["forward"] >= 0.0

    def test_tiny_budget_breaches_repro801(self):
        report = numcheck_model(
            "unet", preset="tiny", grids=(32,), budget=1e-12,
            measure=False,
        )
        breaches = [
            f for f in report["findings"] if f["code"] == "REPRO801"
        ]
        assert breaches and all(f["blocking"] for f in breaches)


class TestShadowVerdict:
    def _shadow(self, forward_abs=0.0, grad_abs=None):
        return SimpleNamespace(
            preset="tiny", grid=32, forward_abs=forward_abs,
            grad_abs=grad_abs or {},
        )

    def test_measured_over_certificate_is_repro809(self):
        doc = {"forward_abs": 1e-6, "grad_bounds": {}}
        out = _shadow_verdict("m", doc, self._shadow(forward_abs=1e-3))
        assert [f.code for f in out] == ["REPRO809"]

    def test_gradient_over_certificate_is_repro809(self):
        doc = {"forward_abs": 1.0, "grad_bounds": {"w": 1e-8}}
        out = _shadow_verdict(
            "m", doc, self._shadow(grad_abs={"w": 1e-4})
        )
        assert any(f.code == "REPRO809" for f in out)

    def test_excess_slack_is_repro810(self):
        doc = {"forward_abs": 1.0, "grad_bounds": {}}
        out = _shadow_verdict("m", doc, self._shadow(forward_abs=1e-6))
        assert [f.code for f in out] == ["REPRO810"]

    def test_tight_envelope_is_silent(self):
        doc = {"forward_abs": 1e-6, "grad_bounds": {"w": 2e-7}}
        out = _shadow_verdict(
            "m", doc,
            self._shadow(forward_abs=5e-7, grad_abs={"w": 1e-7}),
        )
        assert out == []


class TestBaselineDiscipline:
    @pytest.fixture(scope="class")
    def bundle(self):
        return numcheck(
            "unet", preset="tiny", grids=(32,), measure=False
        )

    def test_round_trip_is_clean(self, bundle):
        baseline = baseline_from_numcheck(bundle)
        assert check_numcheck_baseline(bundle, baseline) == []

    def test_drift_is_detected(self, bundle):
        baseline = baseline_from_numcheck(bundle)
        baseline["entries"][0]["forward_rel"] = "9.999999e+09"
        problems = check_numcheck_baseline(bundle, baseline)
        assert problems and "forward_rel" in problems[0]

    def test_injected_code_count_drift_detected(self, bundle):
        baseline = baseline_from_numcheck(bundle)
        baseline["by_code"]["REPRO801"] = 7
        assert check_numcheck_baseline(bundle, baseline)

    def test_measured_codes_excluded_from_slice(self, bundle):
        # REPRO809/810 depend on BLAS-/machine-specific measured error;
        # the deterministic slice must never include them.
        baseline = baseline_from_numcheck(bundle)
        for code in _MEASURED_CODES:
            assert code not in baseline["by_code"]

    def test_slice_is_byte_stable(self, bundle):
        again = numcheck(
            "unet", preset="tiny", grids=(32,), measure=False
        )
        dump = lambda b: json.dumps(  # noqa: E731
            baseline_from_numcheck(b), sort_keys=True
        )
        assert dump(bundle) == dump(again)
        assert bundle["fingerprint"] == again["fingerprint"]

    def test_no_blocking_findings(self, bundle):
        assert not has_blocking(bundle)
        assert bundle["failures"] == []


class TestCache:
    def test_certification_is_cached(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = numcheck_model(
            "unet", preset="tiny", grids=(32,), measure=False,
            cache_dir=cache,
        )
        files = list((tmp_path / "cache").glob("numcheck-*.json"))
        assert len(files) == 1
        second = numcheck_model(
            "unet", preset="tiny", grids=(32,), measure=False,
            cache_dir=cache,
        )
        assert first["grids"] == second["grids"]

    def test_corrupt_cache_entry_recomputes(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        numcheck_model(
            "unet", preset="tiny", grids=(32,), measure=False,
            cache_dir=str(cache),
        )
        entry = next(cache.glob("numcheck-*.json"))
        entry.write_text("{not json")
        report = numcheck_model(
            "unet", preset="tiny", grids=(32,), measure=False,
            cache_dir=str(cache),
        )
        assert report["grids"]["32"]["forward_rel"] > 0.0


class TestFlowBundle:
    def test_flow_target_skips_models(self):
        bundle = numcheck("flow")
        assert bundle["models"] == {}
        assert bundle["flow"] is not None
        assert len(bundle["flow"]["audited_files"]) >= 20
        assert bundle["flow"]["findings"] == []
