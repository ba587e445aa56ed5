"""Gradient audit reports and the ``repro gradcheck`` CLI."""

import json

import pytest

from repro.adjoint import SCHEMA, audit_model, audit_registry


@pytest.fixture(scope="module")
def audit():
    return audit_model("unet", preset="tiny", grid=32)


class TestAuditModel:
    def test_schema_and_shape(self, audit):
        assert audit["schema"] == SCHEMA
        for key in ("contracts", "gradcheck", "failures"):
            assert key in audit
        assert audit["model"] == "unet"

    def test_json_serializable(self, audit):
        json.dumps(audit)

    def test_contracts_covered_every_closure(self, audit):
        assert audit["contracts"]["records"] > 0
        assert audit["contracts"]["ran"] == audit["contracts"]["records"]
        assert audit["contracts"]["findings"] == []

    def test_gradcheck_scoped_to_recorded_ops(self, audit):
        gc = audit["gradcheck"]
        assert gc["cases"] > 0 and gc["failed"] == 0
        assert set(gc["checked_ops"]) <= set(audit["contracts"]["ops"])

    def test_registry_model_audit_is_clean(self, audit):
        assert audit["failures"] == []

    def test_audit_registry_subset(self):
        bundle = audit_registry(("pgnn",), preset="tiny", grid=32)
        assert bundle["schema"] == SCHEMA
        assert [r["model"] for r in bundle["reports"]] == ["pgnn"]


class TestCLI:
    def test_gradcheck_model(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["gradcheck", "unet", "--preset", "tiny", "--grid", "32"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gradcheck OK" in out
        assert "contracts:" in out

    def test_gradcheck_ops_mode(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["gradcheck", "ops"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gradcheck OK" in out

    def test_gradcheck_json(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["gradcheck", "unet", "--preset", "tiny", "--grid", "32",
                       "--json"])
        assert rc == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["schema"] == SCHEMA

