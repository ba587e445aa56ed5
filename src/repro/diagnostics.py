"""Single allocation point for every ``REPROxxx`` diagnostic code.

Every analysis component shares one code namespace, one hundred codes
per band: the AST lint rules (:mod:`repro.lint`, ``REPRO0xx``), the
forward-IR passes (:mod:`repro.ir`, ``REPRO1xx``) and the
adjoint/backward passes (:mod:`repro.adjoint`, ``REPRO2xx``).  The
``REPRO3xx``, ``REPRO4xx``, ``REPRO6xx``, ``REPRO7xx`` and ``REPRO8xx``
bands are retired and stay unassigned.
Before this registry each component kept its own table, which is
exactly how two PRs end up assigning the same code to different rules.
Now every code is declared here,
:func:`register_code` raises on a duplicate assignment, and the
component tables (``repro.lint.rules.RULES``,
``repro.ir.passes.IR_RULES``, ``repro.adjoint.ADJOINT_RULES``, ...)
are views produced by :func:`codes_for`.

Severity: ``blocking`` findings fail gates (``repro lint`` /
``repro analyze`` / ``repro gradcheck`` exit non-zero,
``build_model(analyze=True)`` raises); non-blocking codes report
*opportunities* and never fail anything.  Every finding, whatever its
component, honours ``# noqa: REPROxxx`` suppression on its source line.

The orchestration runtime (:mod:`repro.orchestrate`, ``REPRO5xx``) is
the one component whose codes label *runtime incidents* rather than
static findings: a blocking 5xx code means the parallel run could not
deliver a complete result (a job was quarantined), a non-blocking one
records a fault the supervisor recovered from.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DiagnosticSpec",
    "register_code",
    "codes_for",
    "all_codes",
    "spec_of",
    "is_blocking",
]


@dataclass(frozen=True)
class DiagnosticSpec:
    """One registered rule: its code, summary and severity."""

    code: str
    message: str
    component: str  # owning package: "lint", "ir", ..., "orchestrate"
    blocking: bool = True


_REGISTRY: dict[str, DiagnosticSpec] = {}


def register_code(
    code: str, message: str, *, component: str, blocking: bool = True
) -> DiagnosticSpec:
    """Claim ``code`` for ``component``; a second claim is an error."""
    if code in _REGISTRY:
        existing = _REGISTRY[code]
        raise ValueError(
            f"diagnostic code {code} already assigned to "
            f"{existing.component} ({existing.message!r}); "
            f"cannot reassign to {component}"
        )
    spec = DiagnosticSpec(code, message, component, blocking)
    _REGISTRY[code] = spec
    return spec


def codes_for(component: str) -> dict[str, str]:
    """``{code: message}`` table for one component (insertion-ordered)."""
    return {
        code: spec.message
        for code, spec in _REGISTRY.items()
        if spec.component == component
    }


def all_codes() -> dict[str, DiagnosticSpec]:
    """Every registered code (a copy; mutating it changes nothing)."""
    return dict(_REGISTRY)


def spec_of(code: str) -> DiagnosticSpec:
    return _REGISTRY[code]


def is_blocking(code: str) -> bool:
    """Whether findings with ``code`` fail gates (unknown codes do)."""
    spec = _REGISTRY.get(code)
    return True if spec is None else spec.blocking


# -- the one and only code table ----------------------------------------------
# AST lint rules (repro.lint.rules) — 0xx.
register_code(
    "REPRO001",
    "gradient accumulated without _unbroadcast in broadcastable op",
    component="lint",
)
register_code("REPRO002", "tape detached inside Module.forward", component="lint")
register_code(
    "REPRO003",
    "graph node wired without consulting is_grad_enabled()",
    component="lint",
)
register_code("REPRO004", "mutable default argument", component="lint")
register_code(
    "REPRO005",
    "in-place mutation of Tensor data in forward/backward",
    component="lint",
)
register_code(
    "REPRO006",
    "channel mismatch between consecutive Sequential layers",
    component="lint",
)
register_code("REPRO007", "unused module-level import", component="lint")
register_code(
    "REPRO008",
    "backward closure captures a loop variable or mutates out.grad in place",
    component="lint",
)

# Forward-IR passes (repro.ir) — 1xx.
register_code(
    "REPRO101",
    "exp() reachable with unbounded positive input (overflow)",
    component="ir",
)
register_code(
    "REPRO102",
    "log/division/negative power reachable with zero in range",
    component="ir",
)
register_code(
    "REPRO103",
    "implicit mixed-float promotion widens an array operand",
    component="ir",
)
register_code(
    "REPRO104", "random numbers drawn without an explicit seed", component="ir"
)
register_code(
    "REPRO105",
    "unordered iteration can leak into numeric results",
    component="ir",
)
register_code(
    "REPRO106",
    "dead subgraph (computed but unused in inference)",
    component="ir",
    blocking=False,
)
register_code(
    "REPRO107",
    "duplicate subgraph (CSE opportunity)",
    component="ir",
    blocking=False,
)

# Adjoint/backward passes (repro.adjoint) — 2xx.
register_code(
    "REPRO201",
    "adjoint shape/dtype does not match the primal input",
    component="adjoint",
)
register_code(
    "REPRO202",
    "broadcast operand gradient inconsistent with _unbroadcast rules",
    component="adjoint",
)
register_code(
    "REPRO203",
    "requires_grad parent not accumulated exactly once per backward",
    component="adjoint",
)
register_code(
    "REPRO204",
    "analytic vjp disagrees with central-difference derivative",
    component="adjoint",
)
register_code(
    "REPRO205",
    "gradient path provably vanishes or explodes (interval analysis)",
    component="adjoint",
)
register_code(
    "REPRO206",
    "dead ReLU / saturated activation blocks all gradient flow",
    component="adjoint",
)
register_code(
    "REPRO207",
    "trainable parameter provably disconnected from the loss (detach/no_grad)",
    component="adjoint",
)

# Fault-tolerant orchestration runtime (repro.orchestrate) — 5xx.
# These are *runtime incidents*, not static findings: non-blocking codes
# record faults the supervisor recovered from (the run still produced a
# complete result), blocking codes mean a job was lost and the run is
# partial.
register_code(
    "REPRO501",
    "worker process crashed or was killed mid-job; job re-dispatched",
    component="orchestrate",
    blocking=False,
)
register_code(
    "REPRO502",
    "job exceeded its deadline or stopped heartbeating; worker killed",
    component="orchestrate",
    blocking=False,
)
register_code(
    "REPRO503",
    "poison job quarantined; run result is partial",
    component="orchestrate",
)
register_code(
    "REPRO504",
    "journal recovered with a truncated or corrupt tail (crash mid-append)",
    component="orchestrate",
    blocking=False,
)
register_code(
    "REPRO505",
    "job retry budget exhausted",
    component="orchestrate",
)
register_code(
    "REPRO506",
    "result payload failed validation; attempt discarded and retried",
    component="orchestrate",
    blocking=False,
)
