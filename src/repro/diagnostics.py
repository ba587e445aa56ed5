"""Single allocation point for every ``REPROxxx`` diagnostic code.

Every analysis component shares one code namespace, one hundred codes
per band: the AST lint rules (:mod:`repro.lint`, ``REPRO0xx``), the
forward-IR passes (:mod:`repro.ir`, ``REPRO1xx``), the adjoint/backward
passes (:mod:`repro.adjoint`, ``REPRO2xx``), the static performance
analyzer (:mod:`repro.perf`, ``REPRO3xx``) and the concurrency-safety
analyzer (:mod:`repro.concheck`, ``REPRO6xx``).  The ``REPRO4xx``,
``REPRO7xx`` and ``REPRO8xx`` bands are retired and stay unassigned.
Before this registry each component kept its own table, which is
exactly how two PRs end up assigning the same code to different rules.
Now every code is declared here,
:func:`register_code` raises on a duplicate assignment, and the
component tables (``repro.lint.rules.RULES``,
``repro.ir.passes.IR_RULES``, ``repro.adjoint.ADJOINT_RULES``,
``repro.perf.PERF_RULES``, ...) are views produced by :func:`codes_for`.

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
    component: str  # owning package: "lint", "ir", ..., "concheck"
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

# Static performance analyzer (repro.perf) — 3xx.  Blocking codes mark
# measured/provable waste that must be fixed or ``# noqa``-justified;
# the rest are advisories ranked by their modelled byte/FLOP cost.
register_code(
    "REPRO301",
    "float64 value escapes into a float32 hot path (doubles memory traffic)",
    component="perf",
)
register_code(
    "REPRO302",
    "array allocated at numpy's default float64 in a float32 pipeline",
    component="perf",
)
register_code(
    "REPRO303",
    "redundant defensive copy (source is never mutated or already fresh)",
    component="perf",
    blocking=False,
)
register_code(
    "REPRO304",
    "broadcast materialization blowup (output far larger than any input buffer)",
    component="perf",
    blocking=False,
)
register_code(
    "REPRO305",
    "unfused elementwise chain materializes avoidable transient buffers",
    component="perf",
    blocking=False,
)
register_code(
    "REPRO306",
    "Python-level loop over ndarray elements in a hot call-graph",
    component="perf",
    blocking=False,
)
register_code(
    "REPRO307",
    "cast churn: value widened then cast straight back (or cast to same dtype)",
    component="perf",
    blocking=False,
)
register_code(
    "REPRO308",
    "array allocation inside a loop body (hoist or reuse the buffer)",
    component="perf",
    blocking=False,
)
register_code(
    "REPRO309",
    "same-dtype astype() call produces a needless full copy",
    component="perf",
    blocking=False,
)
register_code(
    "REPRO310",
    "predicted cost claim failed measured validation (time/tracemalloc)",
    component="perf",
)
register_code(
    "REPRO311",
    "contraction operand not in GEMM layout forces workspace copies",
    component="perf",
    blocking=False,
)
register_code(
    "REPRO312",
    "ufunc.at scatter risks the unbuffered per-element fallback "
    "(mixed dtypes); keep operand dtypes equal or use bincount",
    component="perf",
    blocking=False,
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

# Static concurrency-safety analyzer (repro.concheck) — 6xx.  Unlike
# the 5xx runtime incidents these are *static proofs-of-hazard* over
# the worker-reachable call graph: blocking codes break the parity or
# crash-recovery contract outright; advisory codes flag environment
# reads and fork-inherited resources that are legitimate in parent-only
# paths but worth eyes whenever they sit in worker-reachable code.
register_code(
    "REPRO601",
    "worker-reachable code mutates process-global state (module global, "
    "class attribute, os.environ)",
    component="concheck",
)
register_code(
    "REPRO602",
    "worker-reachable function has call-to-call memory (mutable default "
    "argument / nonlocal accumulation)",
    component="concheck",
)
register_code(
    "REPRO603",
    "worker-reachable code reads environment-dependent state (wall clock, "
    "env vars, hostname)",
    component="concheck",
    blocking=False,
)
register_code(
    "REPRO604",
    "global/legacy RNG (np.random.*, random.*, os.urandom) reachable from "
    "a worker entry point",
    component="concheck",
)
register_code(
    "REPRO605",
    "fresh default_rng()/SeedSequence() without a SeedSequence-derived "
    "seed in worker-reachable code",
    component="concheck",
)
register_code(
    "REPRO606",
    "unordered iteration (set, os.listdir) in worker-reachable code",
    component="concheck",
)
register_code(
    "REPRO607",
    "JobSpec payload contains an unpicklable value (lambda, closure, "
    "generator, handle, lock)",
    component="concheck",
)
register_code(
    "REPRO608",
    "dotted job reference does not resolve to a module-level callable",
    component="concheck",
)
register_code(
    "REPRO609",
    "worker module performs IO/RNG/thread/environ side effects at import "
    "time",
    component="concheck",
)
register_code(
    "REPRO610",
    "fork-unsafe resource (thread, lock, socket, pool, handle) created at "
    "module scope in a worker module",
    component="concheck",
    blocking=False,
)
register_code(
    "REPRO611",
    "durable write skips the temp-file + fsync + rename idiom",
    component="concheck",
)
register_code(
    "REPRO612",
    "rename into place without fsync of the written temp file",
    component="concheck",
)
