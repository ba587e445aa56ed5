"""Numcheck driver and sealed report (``repro.numcheck/v1``).

``numcheck`` certifies rounding error for a target (a registry model,
``flow`` or ``all``):

1. trace the model forward+backward at the deployment dtype with
   concrete parameter intervals, propagate the forward envelope
   (:mod:`.envelope`) and the adjoint envelope (:mod:`.adjointenv`) at
   float32 *and* float64 roundoff, and certify the scale-relative
   error bound of every output and parameter gradient (REPRO801);
2. screen the graph for cancellation and ill-conditioned reductions
   (:mod:`.screens`, REPRO802/803);
3. lint the untraced flow code for mixed-precision hazards
   (:mod:`.flowlint`, REPRO806–808);
4. shadow-execute float32 against the float64 oracle at each grid
   (:mod:`.shadow`) and fail REPRO809 when measurement exceeds the
   certificate — the certificate is a *bound*, so a violation means
   the envelope rules are wrong, not the model;
   REPRO810 (advisory) marks certificates with >100x slack.

The bundle is sealed like scalecheck: the fingerprint hashes the
deterministic slice only (certified bounds and static finding counts
— never measured errors, which depend on the linked BLAS).
``check_numcheck_baseline`` diffs that slice against
``benchmarks/numcheck_baseline.json``.  Static certification results
are cached content-addressed on the source fingerprint (the scaling
trace cache's discipline, same CI cache directory).
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.adjoint.graph import build_adjoint_graph
from repro.baselines import diff_counts, diff_entries
from repro.diagnostics import is_blocking
from repro.ir.passes import filter_noqa
from repro.ir.report import serialize_finding
from repro.ir.trace import trace_tape
from repro.lint.rules import LintDiagnostic

from .adjointenv import adjoint_envelope
from .envelope import UNIT_ROUNDOFF, forward_envelope
from .flowlint import lint_flow
from .screens import screen_cancellation, screen_reductions
from .shadow import shadow_run

__all__ = [
    "SCHEMA",
    "MODEL_NAMES",
    "CERT_GRIDS",
    "DEFAULT_BUDGET",
    "numcheck",
    "numcheck_model",
    "baseline_from_numcheck",
    "check_numcheck_baseline",
    "has_blocking",
]

SCHEMA = "repro.numcheck/v1"

#: Registry models, in certification order (kept in sync with
#: repro.models.MODEL_NAMES by a test, not an import, so the flow-lint
#: half works without the model stack importable).
MODEL_NAMES = ("unet", "pgnn", "pros2", "ours")

#: The two grids every certificate is issued and shadow-validated at.
CERT_GRIDS = (32, 64)

#: Relative-error budget for the certified float32 envelope.  This is a
#: *worst-case* bound budget, not a typical-error tolerance: first-order
#: envelopes accumulate the full contraction length of every matmul and
#: conv, and the attention-branch gradient bound saturates at the
#: softmax error cap (see docs/NUMERICS.md), so the budget sits well
#: above measured error (see REPRO810) but still rejects a graph whose
#: certified error growth is out of control (the registry's worst
#: certified bound is ~1.3e2; an unsound rule or a conditioning
#: regression lands at 1e20+ or inf, far past this ceiling).
DEFAULT_BUDGET = 1e3


def _advisory(code: str, message: str) -> LintDiagnostic:
    return LintDiagnostic("<numcheck>", 0, 0, code, message)


def _serialized(findings) -> list[dict]:
    out = []
    for f in findings:
        doc = serialize_finding(f)
        doc["blocking"] = is_blocking(f.code)
        out.append(doc)
    return out


def _traced(name: str, *, preset: str, grid: int, batch: int, seed: int):
    """Trace one registry model forward+tape at deployment dtype."""
    from repro.models.registry import build_model
    from repro.perf.report import DEPLOY_DTYPE, default_dtype

    with default_dtype(DEPLOY_DTYPE):
        model = build_model(name, preset=preset, grid=grid, seed=seed)
        graph, tape = trace_tape(
            model, (batch, 6, grid, grid), input_vrange=(0.0, 1.0),
            name=name, concrete_params=True,
        )
    graph.meta.update({"preset": preset, "grid": grid, "batch": batch})
    return graph, tape


def _certify_grid(
    name: str, *, preset: str, grid: int, batch: int, seed: int,
    budget: float,
) -> tuple[dict, list]:
    """Static certification of one model at one grid (cacheable)."""
    graph, tape = _traced(
        name, preset=preset, grid=grid, batch=batch, seed=seed
    )
    u32, u64 = UNIT_ROUNDOFF["float32"], UNIT_ROUNDOFF["float64"]
    fenv32 = forward_envelope(graph, u=u32)
    fenv64 = forward_envelope(graph, u=u64)
    adjoint = build_adjoint_graph(graph, tape)
    aenv32 = adjoint_envelope(adjoint, fenv32, u=u32)
    aenv64 = adjoint_envelope(adjoint, fenv64, u=u64)

    forward_abs = fenv32.output_delta() + fenv64.output_delta()
    forward_rel = fenv32.output_relative() + fenv64.output_relative()
    backward_rel = aenv32.param_relative() + aenv64.param_relative()

    # Per-parameter absolute gradient bounds, keyed by the model-local
    # parameter name (the graph prefixes the root module class name).
    grad_bounds: dict[str, float] = {}
    for pid, aid in adjoint.grad_of.items():
        leaf = graph[pid]
        if leaf.kind != "param":
            continue
        local = leaf.name.split(".", 1)[-1]
        grad_bounds[local] = aenv32.gdeltas[aid] + aenv64.gdeltas[aid]

    findings: list = []
    if forward_rel > budget:
        findings.append(_advisory(
            "REPRO801",
            f"{name} preset={preset} grid={grid}: certified forward "
            f"relative-error bound {forward_rel:.3e} exceeds the budget "
            f"{budget:.1e}",
        ))
    if backward_rel > budget:
        findings.append(_advisory(
            "REPRO801",
            f"{name} preset={preset} grid={grid}: certified backward "
            f"relative-error bound {backward_rel:.3e} exceeds the budget "
            f"{budget:.1e}",
        ))
    findings += filter_noqa(screen_cancellation(graph, fenv32))
    findings += filter_noqa(screen_reductions(graph, fenv32))

    doc = {
        "grid": grid,
        "forward_rel": forward_rel,
        "backward_rel": backward_rel,
        "forward_abs": forward_abs,
        "grad_bounds": grad_bounds,
        "output_mag": max(
            (fenv32.nodes[i].mag for i in graph.outputs), default=0.0
        ),
        "unsupported": sorted(
            set(fenv32.unsupported)
            | set(aenv32.unsupported)
        ),
    }
    return doc, findings


def numcheck_model(
    name: str,
    *,
    preset: str = "fast",
    grids: tuple[int, ...] = CERT_GRIDS,
    batch: int = 1,
    seed: int = 0,
    budget: float = DEFAULT_BUDGET,
    measure: bool = True,
    cache_dir: str | None = None,
) -> dict:
    """Certify one registry model's rounding error at every grid."""
    findings: list = []
    per_grid: dict = {}
    for grid in grids:
        cached = _cache_get(
            cache_dir, name, preset=preset, grid=grid, batch=batch,
            seed=seed, budget=budget,
        )
        if cached is not None:
            doc, grid_findings = cached
        else:
            doc, diags = _certify_grid(
                name, preset=preset, grid=grid, batch=batch, seed=seed,
                budget=budget,
            )
            grid_findings = _serialized(diags)
            _cache_put(
                cache_dir, name, (doc, grid_findings), preset=preset,
                grid=grid, batch=batch, seed=seed, budget=budget,
            )
        findings.extend(grid_findings)

        if measure:
            shadow = shadow_run(
                name, preset=preset, grid=grid, batch=batch, seed=seed
            )
            doc = dict(doc)
            doc["measured"] = {
                "forward": shadow.forward_error,
                "backward": shadow.backward_error,
                "worst_param": shadow.worst_param,
            }
            findings.extend(
                _serialized(_shadow_verdict(name, doc, shadow))
            )
        per_grid[str(grid)] = doc

    return {
        "schema": SCHEMA,
        "model": name,
        "preset": preset,
        "budget": budget,
        "grids": per_grid,
        "findings": findings,
    }


def _shadow_verdict(name: str, doc: dict, shadow) -> list:
    """Compare measured error against the certificate (REPRO809/810).

    Both sides are *absolute* per-element errors — the only comparison
    where a violation is unambiguously an unsound envelope rule rather
    than a denominator mismatch.
    """
    findings = []
    where = f"{name} preset={shadow.preset} grid={shadow.grid}"
    cert_fwd = float(doc["forward_abs"])
    if shadow.forward_abs > cert_fwd:
        findings.append(_advisory(
            "REPRO809",
            f"{where}: measured forward error {shadow.forward_abs:.3e} "
            f"exceeds the certified envelope {cert_fwd:.3e}; the "
            "envelope rules are unsound for this graph",
        ))
    elif shadow.forward_abs > 0.0 and cert_fwd > 100.0 * shadow.forward_abs:
        findings.append(_advisory(
            "REPRO810",
            f"{where}: certified forward envelope has "
            f"{cert_fwd / shadow.forward_abs:.1e}x slack over the "
            "measured error (worst-case bound, expected to be "
            "conservative)",
        ))
    bounds = doc["grad_bounds"]
    worst_slack, any_measured = 0.0, False
    for pname, measured in sorted(shadow.grad_abs.items()):
        cert = bounds.get(pname)
        if cert is None:
            continue
        if measured > float(cert):
            findings.append(_advisory(
                "REPRO809",
                f"{where}: measured gradient error of {pname} "
                f"({measured:.3e}) exceeds its certified envelope "
                f"({float(cert):.3e}); the adjoint envelope rules are "
                "unsound for this graph",
            ))
        elif measured > 0.0:
            any_measured = True
            worst_slack = max(worst_slack, float(cert) / measured)
    if any_measured and worst_slack > 100.0 and not any(
        f.code == "REPRO809" for f in findings
    ):
        findings.append(_advisory(
            "REPRO810",
            f"{where}: certified gradient envelopes have up to "
            f"{worst_slack:.1e}x slack over the measured error "
            "(worst-case bound, expected to be conservative)",
        ))
    return findings


# -- content-addressed cache (scaling-cache discipline) ------------------------


def _fingerprint_sources() -> str:
    """Source fingerprint covering everything that determines a cert."""
    from repro.scaling.envelopes import _source_fingerprint

    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256(_source_fingerprint().encode())
    pkg_dir = os.path.join(root, "numcheck")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg_dir)):
        dirnames.sort()
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            with open(os.path.join(dirpath, fname), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cache_path(cache_dir, name, **key) -> str | None:
    if not cache_dir:
        return None
    payload = [name, sorted(key.items()), _fingerprint_sources()]
    digest = hashlib.sha256(
        json.dumps(payload, default=str).encode()
    ).hexdigest()[:32]
    return os.path.join(cache_dir, f"numcheck-{digest}.json")


def _cache_get(cache_dir, name, **key):
    path = _cache_path(cache_dir, name, **key)
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return doc["report"], doc["findings"]
    except (OSError, ValueError, KeyError):
        return None


def _cache_put(cache_dir, name, value, **key) -> None:
    path = _cache_path(cache_dir, name, **key)
    if path is None:
        return
    os.makedirs(cache_dir, exist_ok=True)
    doc, findings = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"report": doc, "findings": findings}, fh)


# -- bundle --------------------------------------------------------------------


def numcheck(
    target: str = "all",
    *,
    preset: str = "fast",
    grids: tuple[int, ...] = CERT_GRIDS,
    batch: int = 1,
    seed: int = 0,
    budget: float = DEFAULT_BUDGET,
    measure: bool = True,
    cache_dir: str | None = None,
    root: str | None = None,
) -> dict:
    """Certify rounding error for ``target``: a model, ``flow`` or ``all``."""
    if target == "all":
        names, do_flow = MODEL_NAMES, True
    elif target == "flow":
        names, do_flow = (), True
    else:
        names, do_flow = (target,), False

    models: dict = {}
    flow = None
    findings: list[dict] = []
    for name in names:
        report = numcheck_model(
            name, preset=preset, grids=grids, batch=batch, seed=seed,
            budget=budget, measure=measure, cache_dir=cache_dir,
        )
        models[name] = report
        findings.extend(report["findings"])
    if do_flow:
        linted = lint_flow(root)
        flow = {
            "findings": _serialized(linted["findings"]),
            "audited_files": linted["audited_files"],
        }
        findings.extend(flow["findings"])

    by_code: dict[str, int] = {}
    for f in findings:
        by_code[f["code"]] = by_code.get(f["code"], 0) + 1

    bundle = {
        "schema": SCHEMA,
        "target": target,
        "preset": preset,
        "grids": list(grids),
        "budget": budget,
        "models": models,
        "flow": flow,
        "by_code": dict(sorted(by_code.items())),
        "findings": findings,
        "failures": [f["message"] for f in findings if f["blocking"]],
    }
    bundle["fingerprint"] = _fingerprint(bundle)
    return bundle


def _fingerprint(bundle: dict) -> str:
    """Seal over the deterministic slice only (never measured errors)."""
    slice_ = baseline_from_numcheck(bundle)
    return hashlib.sha256(
        json.dumps(slice_, sort_keys=True).encode()
    ).hexdigest()


#: Codes whose counts depend on the measured (BLAS-/machine-dependent)
#: shadow errors — excluded from the byte-stable baseline slice, like
#: perf excludes REPRO310 wall-clock validation.
_MEASURED_CODES = ("REPRO809", "REPRO810")


def baseline_from_numcheck(bundle: dict) -> dict:
    """Reduce a numcheck bundle to its deterministic, path-free slice."""
    entries: list[dict] = []
    for name in sorted(bundle["models"]):
        report = bundle["models"][name]
        for grid in sorted(report["grids"], key=int):
            doc = report["grids"][grid]
            entries.append({
                "model": name,
                "preset": report["preset"],
                "grid": int(grid),
                "forward_rel": f"{doc['forward_rel']:.6e}",
                "backward_rel": f"{doc['backward_rel']:.6e}",
                "unsupported": list(doc["unsupported"]),
            })
    by_code = {
        code: n for code, n in bundle["by_code"].items()
        if code not in _MEASURED_CODES
    }
    doc: dict = {
        "schema": SCHEMA,
        "budget": f"{bundle['budget']:.1e}",
        "entries": entries,
        "by_code": by_code,
    }
    if bundle.get("flow") is not None:
        flow_codes: dict[str, int] = {}
        for f in bundle["flow"]["findings"]:
            flow_codes[f["code"]] = flow_codes.get(f["code"], 0) + 1
        doc["flow"] = {
            "audited_files": len(bundle["flow"]["audited_files"]),
            "by_code": dict(sorted(flow_codes.items())),
        }
    return doc


def check_numcheck_baseline(bundle: dict, baseline: dict) -> list[str]:
    """Diff the deterministic slice against a pinned baseline."""
    reduced = baseline_from_numcheck(bundle)
    problems = diff_entries(
        baseline.get("entries", []),
        reduced["entries"],
        key=("model", "preset", "grid"),
        verb="certified",
    )
    want_flow = baseline.get("flow")
    got_flow = reduced.get("flow")
    if want_flow is not None and got_flow is None:
        problems.append("flow lint in baseline but not run (target was a model)")
    elif want_flow is not None:
        problems += diff_counts(
            want_flow.get("by_code", {}),
            got_flow["by_code"],
            label="flow {key} count changed",
        )
    problems += diff_counts(
        baseline.get("by_code", {}),
        reduced["by_code"],
        label="{key} count changed",
    )
    return problems


def has_blocking(bundle: dict) -> bool:
    return any(is_blocking(f["code"]) for f in bundle["findings"])
