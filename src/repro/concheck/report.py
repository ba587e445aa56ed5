"""Concheck driver and machine-readable report (``repro.concheck/v1``).

``concheck`` indexes the package source, re-derives the worker-root
universe, builds the call graph and runs the four pass families.  The
bundle holds per-family sections, ``by_code`` counts, serialized
findings, and ``failures`` holding the blocking subset that makes
``repro concheck`` exit non-zero.

``check_concheck_baseline`` diffs the deterministic slice — worker
roots, reachable-universe size, effect summary and per-code counts,
never absolute paths or timings — against
``benchmarks/concheck_baseline.json``, so CI catches a new hazard (or
a silently shrunk worker universe, which would mean the analyzer lost
sight of code it used to certify) as a one-line diff.
"""

from __future__ import annotations

from pathlib import Path

from repro.diagnostics import is_blocking
from repro.ir.report import serialize_finding
from repro.lint.rules import LintDiagnostic

from .callgraph import build_call_graph
from .durability import check_durability
from .effects import infer_effects
from .forksafety import check_fork_safety
from .index import build_index
from .rng import check_rng_discipline

__all__ = ["SCHEMA", "concheck", "baseline_from_concheck", "check_concheck_baseline"]

SCHEMA = "repro.concheck/v1"


def _default_root() -> Path:
    return Path(__file__).resolve().parents[1]


def concheck(root: str | Path | None = None, package: str | None = None) -> dict:
    """Run every concurrency-safety pass over one package tree."""
    root = Path(root) if root is not None else _default_root()
    index = build_index(root, package=package or root.name)
    graph = build_call_graph(index)

    effects = infer_effects(index, graph)
    findings: list[LintDiagnostic] = list(effects["findings"])
    findings += check_rng_discipline(index, graph)
    findings += check_fork_safety(index, graph)
    findings += check_durability(index)
    findings.sort(key=lambda d: (d.path, d.line, d.col, d.code))

    by_code: dict[str, int] = {}
    for f in findings:
        by_code[f.code] = by_code.get(f.code, 0) + 1

    roots = sorted(ref for ref, _, _ in graph.roots.values())
    return {
        "schema": SCHEMA,
        "package": index.package,
        "modules": len(index.modules),
        "functions": len(index.functions),
        "worker_roots": roots,
        "reachable_functions": len(graph.reachable),
        "worker_modules": sorted(graph.worker_modules()),
        "effect_summary": effects["summary"],
        "escapes": effects["escapes"],
        "by_code": dict(sorted(by_code.items())),
        "findings": [serialize_finding(f) for f in findings],
        "failures": [str(f) for f in findings if is_blocking(f.code)],
    }


# -- baseline diffing ----------------------------------------------------------


def baseline_from_concheck(bundle: dict) -> dict:
    """Reduce a concheck bundle to its deterministic slice.

    Worker roots and counts only — no absolute paths, so the baseline
    is stable across checkouts.
    """
    return {
        "schema": SCHEMA,
        "package": bundle["package"],
        "worker_roots": list(bundle["worker_roots"]),
        "reachable_functions": bundle["reachable_functions"],
        "effect_summary": dict(bundle["effect_summary"]),
        "by_code": dict(bundle["by_code"]),
    }


def check_concheck_baseline(bundle: dict, baseline: dict) -> list[str]:
    """Exact-match diff of the deterministic slice; returns mismatches."""
    reduced = baseline_from_concheck(bundle)
    problems: list[str] = []
    if baseline.get("package") not in (None, reduced["package"]):
        problems.append(
            f"package changed {baseline.get('package')} -> {reduced['package']}"
        )
    want_roots = list(baseline.get("worker_roots", []))
    got_roots = reduced["worker_roots"]
    for ref in sorted(set(want_roots) - set(got_roots)):
        problems.append(
            f"worker root disappeared: {ref} (the analyzer lost sight of a "
            "job entry point — or it was removed; --update-baseline if so)"
        )
    for ref in sorted(set(got_roots) - set(want_roots)):
        problems.append(f"new worker root: {ref} (run --update-baseline)")
    want_n = baseline.get("reachable_functions")
    if want_n is not None and want_n != reduced["reachable_functions"]:
        problems.append(
            "reachable_functions changed "
            f"{want_n} -> {reduced['reachable_functions']}"
        )
    from repro.baselines import diff_counts

    problems += diff_counts(
        baseline.get("effect_summary", {}),
        reduced["effect_summary"],
        label="effect level '{key}' count changed",
    )
    problems += diff_counts(
        baseline.get("by_code", {}),
        reduced["by_code"],
        label="{key} count changed",
    )
    return problems
