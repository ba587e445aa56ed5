"""Gradient verification for :mod:`repro.nn`.

The fourth leg of the correctness tooling (after the AST lint rules,
the runtime sanitizers and the forward symbolic IR): observe the
*backward* pass itself and verify it two independent ways —

* :mod:`repro.adjoint.capture` / :mod:`repro.adjoint.contracts` —
  observe a real forward+backward and audit every accumulation against
  the vjp contract (REPRO201–203: adjoint shape/dtype, broadcast
  consistency, exactly-once accumulation);
* :mod:`repro.adjoint.gradcheck` / :mod:`repro.adjoint.specs` — a
  randomized central-difference derivative audit per primitive op kind,
  with a principled float64 tolerance model and dedicated kink-point
  probes for subgradient ops (REPRO204).

Entry points: ``repro gradcheck <model|all|ops>`` on the command line,
:func:`audit_model` / :func:`audit_registry` in code.  Findings share
the diagnostic format, rule-code namespace (:mod:`repro.diagnostics`)
and ``# noqa`` suppression of :mod:`repro.lint`.
"""

from repro.diagnostics import codes_for

from .capture import AccumEvent, OpRecord, capture_tape
from .contracts import check_contracts
from .gradcheck import fd_tolerance, gradcheck_case, run_gradcheck, run_kink_probes
from .report import SCHEMA, audit_model, audit_registry
from .specs import CASES, UNCOVERED, Case, cases_for, covered_targets, op_kinds

#: rule code -> message, sourced from the central registry.
ADJOINT_RULES = codes_for("adjoint")

__all__ = [
    "ADJOINT_RULES",
    "AccumEvent",
    "CASES",
    "Case",
    "OpRecord",
    "SCHEMA",
    "UNCOVERED",
    "audit_model",
    "audit_registry",
    "capture_tape",
    "cases_for",
    "check_contracts",
    "covered_targets",
    "fd_tolerance",
    "gradcheck_case",
    "op_kinds",
    "run_gradcheck",
    "run_kink_probes",
]
