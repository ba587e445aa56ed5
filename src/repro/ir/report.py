"""Analysis driver and machine-readable report (schema ``repro.ir/v1``).

``analyze_model`` traces one registry model at one grid, runs the
stability check and the cost model over the graph, and assembles a
single JSON-serializable report.  ``analyze_registry`` sweeps models ×
grids.  ``check_baseline`` diffs the invariant slice of a report set
(FLOPs, parameter and node counts) against a checked-in baseline so CI
catches silent cost regressions.

Severity model: every stability (``REPRO101``–``103``) finding is a
*failure*: ``repro analyze`` exits non-zero.
"""

from __future__ import annotations

from repro.lint.rules import filter_noqa

from .graph import Graph
from .cost import cost_model
from .stability import check_stability
from .trace import trace_model

__all__ = [
    "SCHEMA",
    "analyze_graph",
    "analyze_model",
    "analyze_registry",
    "baseline_from_reports",
    "check_baseline",
]

SCHEMA = "repro.ir/v1"


def analyze_graph(graph: Graph) -> dict:
    """Run the graph analyses on ``graph``."""
    stability = filter_noqa(check_stability(graph)["findings"])
    failures = sorted(stability, key=lambda f: (f.code, f.path, f.line))

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
        "cost": cost_model(graph),
        "stability": {"findings": [f.to_dict() for f in stability]},
        "failures": [str(f) for f in failures],
    }


def analyze_model(
    model_name: str,
    *,
    preset: str = "fast",
    grid: int = 64,
    batch: int = 1,
) -> dict:
    """Trace + analyze one registry model; returns a ``repro.ir/v1`` report."""
    graph = trace_model(model_name, preset=preset, grid=grid, batch=batch)
    return analyze_graph(graph)


def analyze_registry(
    models: tuple[str, ...] | None = None,
    *,
    preset: str = "fast",
    grids: tuple[int, ...] = (64,),
) -> dict:
    """Sweep models × grids."""
    from repro.models.registry import MODEL_NAMES

    reports = [
        analyze_model(name, preset=preset, grid=grid)
        for name in (models or MODEL_NAMES)
        for grid in grids
    ]
    return {"schema": SCHEMA, "reports": reports}


# -- baseline diffing ----------------------------------------------------------


def baseline_from_reports(bundle: dict) -> dict:
    """Reduce a report bundle to the invariant slice CI checks."""
    entries = [
        {
            "model": report["model"],
            "preset": report["preset"],
            "grid": report["grid"],
            "total_flops": report["cost"]["total_flops"],
            "param_count": report["cost"]["param_count"],
            "nodes": report["graph"]["nodes"],
        }
        for report in bundle["reports"]
    ]
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
    driven by the *baseline's* fields: a baseline only pins the numbers
    it records.
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
            got = got_by_key[k].get(field)
            if got != want:
                problems.append(
                    f"{name}: {field} changed {_fmt_change(want, got)}"
                )
    return problems
