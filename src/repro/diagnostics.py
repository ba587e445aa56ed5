"""Single allocation point for every ``REPROxxx`` diagnostic code.

Every analysis component shares one code namespace, one hundred codes
per band: the AST lint rules (:mod:`repro.lint`, ``REPRO0xx``) and the
forward-IR passes (:mod:`repro.ir`, ``REPRO1xx``).  The ``REPRO2xx``,
``REPRO3xx``, ``REPRO4xx``, ``REPRO6xx``, ``REPRO7xx`` and ``REPRO8xx``
bands are retired and stay unassigned, as do the retired codes 006 and
104–107 (the determinism rules once numbered 104/105 are the lint
rules 009/010).
Before this registry each component kept its own table, which is
exactly how two PRs end up assigning the same code to different rules.
Now every code is declared here,
:func:`register_code` raises on a duplicate assignment, and the
component tables (``repro.lint.rules.RULES``,
``repro.orchestrate.ORCHESTRATE_RULES``, ...) are views produced by
:func:`codes_for`.

Severity: ``blocking`` findings fail gates (``repro lint`` /
``repro analyze`` exit non-zero).  Every static code is blocking; only
runtime incidents (below) can be non-blocking.
Every finding, whatever its component, honours ``# noqa: REPROxxx``
suppression on its source line.

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
register_code("REPRO007", "unused module-level import", component="lint")
register_code(
    "REPRO008",
    "backward closure captures a loop variable or mutates out.grad in place",
    component="lint",
)
register_code(
    "REPRO009", "random numbers drawn without an explicit seed", component="lint"
)
register_code(
    "REPRO010",
    "unordered iteration can leak into numeric results",
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
register_code(
    "REPRO507",
    "job arguments do not pickle; job failed without retry",
    component="orchestrate",
)
