"""Static floating-point error-bound certification (REPRO801–810).

Every other analyzer band certifies shape, memory, cost or
determinism — this one certifies *rounding*.  First-order error
envelopes over the forward and adjoint graphs, interval screens for
cancellation, a mixed-precision lint over the untraced flow code, and
a float64 shadow-execution harness that validates every certificate by
measurement.
"""

from repro.diagnostics import codes_for

from .adjointenv import AdjointEnvelope, adjoint_envelope
from .envelope import (
    UNIT_ROUNDOFF,
    ForwardEnvelope,
    NodeEnvelope,
    forward_envelope,
    unit_roundoff,
)
from .flowlint import FLOW_PACKAGES, lint_flow, lint_source
from .report import (
    CERT_GRIDS,
    DEFAULT_BUDGET,
    MODEL_NAMES,
    SCHEMA,
    baseline_from_numcheck,
    check_numcheck_baseline,
    has_blocking,
    numcheck,
    numcheck_model,
)
from .screens import screen_cancellation, screen_reductions
from .shadow import ShadowResult, shadow_run

#: All REPRO80x rules this package can emit, from the central registry.
NUMCHECK_RULES = codes_for("numcheck")

__all__ = [
    "SCHEMA",
    "MODEL_NAMES",
    "CERT_GRIDS",
    "DEFAULT_BUDGET",
    "NUMCHECK_RULES",
    "UNIT_ROUNDOFF",
    "NodeEnvelope",
    "ForwardEnvelope",
    "AdjointEnvelope",
    "ShadowResult",
    "FLOW_PACKAGES",
    "forward_envelope",
    "adjoint_envelope",
    "unit_roundoff",
    "screen_cancellation",
    "screen_reductions",
    "lint_flow",
    "lint_source",
    "shadow_run",
    "numcheck",
    "numcheck_model",
    "baseline_from_numcheck",
    "check_numcheck_baseline",
    "has_blocking",
]
