"""Analysis driver and machine-readable report (schema ``repro.ir/v1``).

``analyze_model`` traces one registry model at one grid, runs every
registered graph pass plus the source-level determinism audit, and
assembles a single JSON-serializable report.  ``analyze_registry``
sweeps models × grids.  ``check_baseline`` diffs the invariant slice of
a report set (FLOPs, peak activation bytes, parameter/node counts)
against a checked-in baseline so CI catches silent cost regressions.

Severity model: stability (``REPRO101``–``103``) and determinism
(``REPRO104``/``105``) findings are *failures* — ``repro analyze``
exits non-zero and ``build_model(analyze=True)`` raises
:class:`AnalysisError`.  Dead/duplicate subgraphs (``REPRO106``/``107``)
are *opportunities* and never fail anything.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.lint.rules import LintDiagnostic

from .determinism import audit_determinism
from .graph import Graph
from .passes import OPPORTUNITY_RULES, collect_findings, filter_noqa, run_passes
from .trace import trace_model

__all__ = [
    "SCHEMA",
    "AnalysisError",
    "analyze_graph",
    "analyze_model",
    "analyze_registry",
    "baseline_from_reports",
    "check_baseline",
    "serialize_finding",
]

SCHEMA = "repro.ir/v1"

_REPO_ROOT = Path(__file__).resolve().parents[3]


class AnalysisError(RuntimeError):
    """Raised when static analysis finds stability/determinism hazards."""

    def __init__(self, findings: list[LintDiagnostic]):
        self.findings = findings
        lines = "\n".join(f"  {f}" for f in findings)
        super().__init__(
            f"static analysis found {len(findings)} blocking finding(s):\n{lines}"
        )


def _rel(path: str) -> str:
    try:
        return os.path.relpath(path, _REPO_ROOT)
    except ValueError:  # different drive (windows); keep as-is
        return path


def serialize_finding(finding: LintDiagnostic) -> dict:
    return {
        "path": _rel(finding.path),
        "line": finding.line,
        "col": finding.col,
        "code": finding.code,
        "message": finding.message,
    }


def analyze_graph(graph: Graph, *, determinism: bool = True) -> dict:
    """Run all graph passes (and optionally the source audit) on ``graph``."""
    results = run_passes(graph)
    audit = audit_determinism() if determinism else {"audited_files": 0, "findings": []}
    audit["findings"] = filter_noqa(audit["findings"])

    failures = collect_findings(results) + [
        f for f in audit["findings"] if f.code not in OPPORTUNITY_RULES
    ]
    opportunities = [
        f
        for f in collect_findings(results, include_opportunities=True)
        if f.code in OPPORTUNITY_RULES
    ]

    return {
        "schema": SCHEMA,
        "model": graph.meta.get("model", ""),
        "preset": graph.meta.get("preset", ""),
        "grid": graph.meta.get("grid", 0),
        "batch": graph.meta.get("batch", 1),
        "dtype": graph.meta.get("dtype", ""),
        "graph": {
            "nodes": len(graph),
            "counts": graph.counts(),
            "output_shapes": [list(graph[i].shape) for i in graph.outputs],
        },
        "memory": results["memory"],
        "cost": results["cost"],
        "stability": {"findings": [serialize_finding(f) for f in results["stability"]["findings"]]},
        "determinism": {
            "audited_files": audit["audited_files"],
            "findings": [serialize_finding(f) for f in audit["findings"]],
        },
        "opportunities": {
            "dead": {k: v for k, v in results["dead"].items() if k != "findings"},
            "duplicates": {k: v for k, v in results["cse"].items() if k != "findings"},
            "findings": [serialize_finding(f) for f in opportunities],
        },
        "failures": [str(f) for f in failures],
    }


def analyze_model(
    model_name: str,
    *,
    preset: str = "fast",
    grid: int = 64,
    batch: int = 1,
    determinism: bool = True,
    backward: bool = False,
) -> dict:
    """Trace + analyze one registry model; returns a ``repro.ir/v1`` report.

    With ``backward=True`` the report grows a ``"backward"`` section from
    :mod:`repro.adjoint`: tape/adjoint-graph statistics, gradient-flow
    findings (REPRO205–207, blocking ones join ``"failures"``) and the
    forward+backward training-memory plan.
    """
    graph = trace_model(model_name, preset=preset, grid=grid, batch=batch)
    report = analyze_graph(graph, determinism=determinism)
    if backward:
        # Function-level import: repro.adjoint builds on repro.ir.
        from repro.adjoint.report import backward_section

        report["backward"] = backward_section(
            model_name, preset=preset, grid=grid, batch=batch
        )
        report["failures"].extend(report["backward"]["failures"])
    return report


def analyze_registry(
    models: tuple[str, ...] | None = None,
    *,
    preset: str = "fast",
    grids: tuple[int, ...] = (64,),
    determinism: bool = True,
    backward: bool = False,
) -> dict:
    """Sweep models × grids.  The source audit runs once (it is per-repo)."""
    from repro.models.registry import MODEL_NAMES

    models = models or MODEL_NAMES
    reports = []
    for i, name in enumerate(models):
        for j, grid in enumerate(grids):
            reports.append(
                analyze_model(
                    name,
                    preset=preset,
                    grid=grid,
                    determinism=determinism and i == 0 and j == 0,
                    backward=backward,
                )
            )
    return {"schema": SCHEMA, "reports": reports}


# -- baseline diffing ----------------------------------------------------------


def baseline_from_reports(bundle: dict) -> dict:
    """Reduce a report bundle to the invariant slice CI checks.

    Reports carrying a ``"backward"`` section (``analyze --backward``)
    contribute the backward invariants too — tape length, adjoint node
    count and the planned training peak.
    """
    entries = []
    for report in bundle["reports"]:
        entry = {
            "model": report["model"],
            "preset": report["preset"],
            "grid": report["grid"],
            "total_flops": report["cost"]["total_flops"],
            "param_count": report["cost"]["param_count"],
            "peak_bytes": report["memory"]["peak_bytes"],
            "nodes": report["graph"]["nodes"],
        }
        if "backward" in report:
            back = report["backward"]
            entry.update(
                {
                    "tape_entries": back["tape_entries"],
                    "adjoint_nodes": back["adjoint_nodes"],
                    "train_peak_bytes": back["memory"]["train_peak_bytes"],
                    "grad_bytes_total": back["memory"]["grad_bytes_total"],
                }
            )
        entries.append(entry)
    return {"schema": SCHEMA, "entries": entries}


def _fmt_change(want, got) -> str:
    if isinstance(want, int) and isinstance(got, int) and not (
        isinstance(want, bool) or isinstance(got, bool)
    ):
        return f"{want} -> {got} ({got - want:+d})"
    return f"{want} -> {got}"


def check_baseline(bundle: dict, baseline: dict) -> list[str]:
    """Exact-match diff of the invariant slice; returns mismatch messages.

    Records are keyed on (model, preset, grid), and the comparison is
    driven by the *baseline's* fields, so one checker serves both the
    forward slice (``benchmarks/ir_baseline.json``) and the
    forward+backward slice (``benchmarks/adjoint_baseline.json``) — a
    baseline only pins the numbers it records.
    """
    key = ("model", "preset", "grid")

    def keyed(entries: list[dict]) -> dict[tuple, dict]:
        return {tuple(e[k] for k in key): e for e in entries}

    want_by_key = keyed(baseline.get("entries", []))
    got_by_key = keyed(baseline_from_reports(bundle)["entries"])
    problems: list[str] = []
    for k in sorted(set(want_by_key) | set(got_by_key)):
        name = "{}/{}/grid{}".format(*k)
        if k not in got_by_key:
            problems.append(f"{name}: in baseline but not analyzed")
            continue
        if k not in want_by_key:
            problems.append(
                f"{name}: analyzed but missing from baseline "
                "(run with --update-baseline)"
            )
            continue
        for field, want in want_by_key[k].items():
            if field in key:
                continue
            if field not in got_by_key[k]:
                problems.append(
                    f"{name}: baseline pins {field!r} but the report has no "
                    "such field (re-run with --backward?)"
                )
                continue
            got = got_by_key[k][field]
            if got != want:
                problems.append(
                    f"{name}: {field} changed {_fmt_change(want, got)}"
                )
    return problems
