"""Static analysis and runtime sanitizers for the numpy DL substrate.

Two independent layers of correctness tooling for :mod:`repro.nn`
(see docs/API.md, "Static analysis & sanitizers"):

* :mod:`repro.lint.rules` — project-specific AST lint rules that walk
  backward closures and ``Module.forward`` bodies for autograd hazards
  (missing ``_unbroadcast``, tape detaches, unguarded graph wiring,
  in-place mutation, stale closures, unused imports), and every module
  for determinism hazards (unseeded or global RNG, unordered iteration).
* :mod:`repro.lint.sanitize` — opt-in runtime anomaly mode
  (``with detect_anomaly():``) that records op provenance, pinpoints the
  first backward closure producing NaN/Inf gradients, detects in-place
  mutation between forward and backward, and reports leaked graphs and
  unused parameter gradients.

Model shapes are validated by tracing each model's own ``forward``
with :func:`repro.ir.trace` (``build_model`` does it on every build).

CLI: ``repro lint [paths...]`` (default: the repro package).
"""

from .rules import (
    RULES,
    LintDiagnostic,
    filter_noqa,
    lint_file,
    lint_paths,
    lint_source,
)
from .sanitize import (
    AnomalyDetector,
    AnomalyError,
    GraphLeakError,
    InplaceMutationError,
    NonFiniteGradientError,
    detect_anomaly,
    unused_parameter_report,
)

__all__ = [
    "RULES",
    "LintDiagnostic",
    "filter_noqa",
    "lint_source",
    "lint_file",
    "lint_paths",
    "AnomalyError",
    "AnomalyDetector",
    "NonFiniteGradientError",
    "InplaceMutationError",
    "GraphLeakError",
    "detect_anomaly",
    "unused_parameter_report",
]
