"""The central REPROxxx registry is the single allocation point."""

import pytest

from repro.diagnostics import (
    all_codes,
    codes_for,
    is_blocking,
    register_code,
    spec_of,
)


class TestRegistry:
    def test_duplicate_code_assignment_fails(self):
        # REPRO101 already belongs to the ir component; claiming it for
        # any component (even the same one) must raise loudly.
        with pytest.raises(ValueError, match="REPRO101 already assigned"):
            register_code("REPRO101", "something else", component="adjoint")

    def test_namespace_bands(self):
        for code, spec in all_codes().items():
            band = int(code.removeprefix("REPRO")) // 100
            expected = {
                0: "lint", 1: "ir", 2: "adjoint", 5: "orchestrate",
            }[band]
            assert spec.component == expected, code

    def test_component_views_match_consumers(self):
        from repro.adjoint import ADJOINT_RULES
        from repro.ir.passes import IR_RULES, OPPORTUNITY_RULES
        from repro.lint.rules import RULES
        from repro.orchestrate import ORCHESTRATE_RULES

        assert RULES == codes_for("lint")
        assert IR_RULES == codes_for("ir")
        assert ADJOINT_RULES == codes_for("adjoint")
        assert ORCHESTRATE_RULES == codes_for("orchestrate")
        assert set(OPPORTUNITY_RULES) == {
            c for c, s in all_codes().items()
            if s.component == "ir" and not s.blocking
        }

    def test_adjoint_codes_present(self):
        assert set(codes_for("adjoint")) == {
            f"REPRO20{i}" for i in range(1, 8)
        }

    def test_orchestrate_codes_present(self):
        assert set(codes_for("orchestrate")) == {
            f"REPRO50{i}" for i in range(1, 7)
        }
        # Blocking = the run delivered a partial result; non-blocking =
        # the supervisor recovered (crash, deadline, journal, payload).
        assert {c for c in codes_for("orchestrate") if is_blocking(c)} == {
            "REPRO503", "REPRO505",
        }

    def test_blocking_metadata(self):
        assert not is_blocking("REPRO106")
        assert not is_blocking("REPRO107")
        assert is_blocking("REPRO204")
        # Unknown codes fail closed.
        assert is_blocking("REPRO999")
        assert spec_of("REPRO008").component == "lint"
