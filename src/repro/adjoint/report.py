"""Audit driver and machine-readable report (schema ``repro.adjoint/v1``).

``audit_model`` runs the full gradient audit for one registry model:

1. **Concrete contract capture** — a real (small) forward+backward under
   :class:`~repro.adjoint.capture.capture_tape`, checked against the
   vjp accumulation contract (REPRO201/203).
2. **Derivative audit** — the central-difference harness
   (:mod:`repro.adjoint.gradcheck`), restricted to the op kinds the
   model actually recorded (REPRO202/204).
"""

from __future__ import annotations

import numpy as np

from repro.diagnostics import is_blocking
from repro.nn.tensor import Tensor

from .capture import capture_tape
from .contracts import check_contracts
from .gradcheck import run_gradcheck

__all__ = ["SCHEMA", "audit_model", "audit_registry"]

SCHEMA = "repro.adjoint/v1"


def audit_model(
    model_name: str,
    *,
    preset: str = "fast",
    grid: int = 64,
    batch: int = 1,
    seed: int = 0,
) -> dict:
    """Full gradient audit of one registry model."""
    from repro.models.registry import build_model

    model = build_model(model_name, preset=preset, grid=grid)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.random((batch, 6, grid, grid)))
    with capture_tape() as cap:
        out = model(x)
        out.backward(np.ones(out.shape, dtype=out.data.dtype))
    contract_findings = check_contracts(cap.records)

    gradcheck = run_gradcheck(cap.ops_used(), seed=seed)

    findings = list(contract_findings) + list(gradcheck["findings"])
    failures = [str(f) for f in findings if is_blocking(f.code)]
    return {
        "schema": SCHEMA,
        "model": model_name,
        "preset": preset,
        "grid": grid,
        "batch": batch,
        "contracts": {
            "records": len(cap.records),
            "ran": sum(1 for r in cap.records if r.ran),
            "ops": list(cap.ops_used()),
            "findings": [f.to_dict() for f in contract_findings],
        },
        "gradcheck": {
            "cases": len(gradcheck["cases"]),
            "failed": sum(1 for c in gradcheck["cases"] if not c["passed"]),
            "checked_ops": gradcheck["checked_ops"],
            "case_results": gradcheck["cases"],
            "findings": [f.to_dict() for f in gradcheck["findings"]],
        },
        "failures": failures,
    }


def audit_registry(
    models: tuple[str, ...] | None = None,
    *,
    preset: str = "fast",
    grid: int = 64,
    seed: int = 0,
) -> dict:
    """Audit every registry model (or the given subset)."""
    from repro.models.registry import MODEL_NAMES

    reports = [
        audit_model(name, preset=preset, grid=grid, seed=seed)
        for name in (models or MODEL_NAMES)
    ]
    return {"schema": SCHEMA, "reports": reports}
