"""Gradient contract checks (REPRO201–203) over a captured tape.

The vjp contract every primitive must honour:

* **REPRO201** — each adjoint accumulated into a parent must have
  exactly the parent's shape and dtype.  numpy's ``+=`` broadcast rules
  would silently accept some mismatches (a ``(n,)`` adjoint into a
  ``(1, n)`` parent) and silently *downcast* others (a float64 adjoint
  into a float32 parent), so this is checked on the raw adjoint before
  the addition.
* **REPRO203** — every ``requires_grad`` parent slot must be
  accumulated into exactly once per closure run: zero means the vjp
  drops a gradient, two means it double-counts, and accumulating into a
  tensor that is not a recorded parent corrupts an unrelated gradient.

REPRO202 (broadcast/``_unbroadcast`` consistency) is the numerical half
of the contract and lives in :mod:`repro.adjoint.gradcheck`, which
finite-difference-checks dedicated broadcast configurations.

Findings anchor at the ``def backward`` line of the offending closure
and honour ``# noqa`` there, like every other REPROxxx diagnostic.
"""

from __future__ import annotations

import numpy as np

from repro.lint.rules import LintDiagnostic, filter_noqa

from .capture import OpRecord

__all__ = ["check_contracts"]


def _finding(record: OpRecord, code: str, message: str) -> LintDiagnostic:
    path, _, lineno = record.src.rpartition(":")
    line = int(lineno) if lineno.isdigit() else 0
    return LintDiagnostic(path or record.src, line, 0, code, message)


def check_contracts(records: list[OpRecord]) -> list[LintDiagnostic]:
    """Audit every closure run against the vjp contract.

    Returns deduplicated, ``# noqa``-filtered findings (one per
    (code, closure, defect), not one per op instance).
    """
    findings: dict[tuple, LintDiagnostic] = {}

    def report(record: OpRecord, code: str, message: str) -> None:
        f = _finding(record, code, f"[{record.op}] {message}")
        findings.setdefault((f.code, f.path, f.line, f.message), f)

    for record in records:
        if not record.ran:
            continue  # dead branch: the runtime never invoked this vjp
        by_id = {id(p): p for p in record.parents}

        for event in record.events:
            parent = by_id.get(event.target)
            if parent is None:
                report(
                    record,
                    "REPRO203",
                    "backward accumulated into a tensor that is not a "
                    "recorded parent of the op",
                )
                continue
            if event.shape != parent.shape:
                report(
                    record,
                    "REPRO201",
                    f"adjoint shape {event.shape} does not match primal "
                    f"input shape {parent.shape}",
                )
            if np.dtype(event.dtype) != parent.data.dtype:
                report(
                    record,
                    "REPRO201",
                    f"adjoint dtype {np.dtype(event.dtype).name} does not "
                    f"match primal input dtype {parent.data.dtype.name} "
                    "(the += would silently cast)",
                )

        observed = record.observed_counts()
        for target, expected in record.expected_counts().items():
            got = observed.get(target, 0)
            if got == expected:
                continue
            parent = by_id[target]
            what = "dropped" if got < expected else "double-counted"
            report(
                record,
                "REPRO203",
                f"requires_grad parent of shape {parent.shape} was "
                f"accumulated {got}x (expected {expected}x): gradient "
                f"{what}",
            )

    return filter_noqa(sorted(findings.values(), key=lambda f: (f.code, f.path, f.line)))
