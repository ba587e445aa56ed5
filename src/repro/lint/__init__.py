"""Static analysis for the numpy DL substrate.

:mod:`repro.lint.rules` holds project-specific AST lint rules (see
docs/API.md, "Static analysis") that walk backward closures and
``Module.forward`` bodies for autograd hazards (missing
``_unbroadcast``, tape detaches, unguarded graph wiring, in-place
mutation, stale closures, unused imports), and every module for
determinism hazards (unseeded or global RNG, unordered iteration).

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

__all__ = [
    "RULES",
    "LintDiagnostic",
    "filter_noqa",
    "lint_source",
    "lint_file",
    "lint_paths",
]
