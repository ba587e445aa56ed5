"""Randomized central-difference derivative audit (REPRO204/202).

For each registered :class:`~repro.adjoint.specs.Case` the harness
compares the analytic vjp (one backward pass against a fixed random
cotangent ``w``) with central differences of the scalar projection
``L(x) = sum(f(x) * w)``, element by element.

Tolerance model (float64).  With step ``h_i = eps**(1/3) * max(1, |x_i|)``
the central difference has truncation error ``~ |f'''| h**2 / 6`` and
rounding error ``~ eps * |L| / h``; both are minimized to a *relative*
error of order ``eps**(2/3) ≈ 3.7e-11`` at that step.  The harness
allows ``1e4`` times that optimum (per-case ``scale`` widens it further
for deep accumulation chains like convolutions and normalizations) —
still nine orders of magnitude below the O(1) error of a genuinely
wrong vjp formula, so the check cannot mask a real defect.

Kink probes.  Finite differences are meaningless *at* a subgradient
kink, so ``relu``/``max``/``max_pool2d`` get dedicated probes at exact
kink points instead: the analytic gradient must be finite, lie in the
subgradient hull, conserve gradient mass across ties, and (the
substrate's chosen convention) split mass evenly among ties —
consistently between ``Tensor.max`` and ``max_pool2d``.

Failures are REPROxxx findings anchored at the offending ``def
backward`` line (honouring ``# noqa`` there).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.lint.rules import LintDiagnostic, filter_noqa
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad

from .capture import capture_tape
from .specs import CASES, Case, cases_for

__all__ = [
    "fd_tolerance",
    "gradcheck_case",
    "run_kink_probes",
    "run_gradcheck",
]

_EPS = float(np.finfo(np.float64).eps)


def fd_tolerance(loss_scale: float, scale: float = 1.0) -> tuple[float, float]:
    """(rtol, atol) for comparing analytic vs central-difference grads."""
    base = _EPS ** (2.0 / 3.0)  # optimal central-difference relative error
    rtol = 1e4 * base * scale
    atol = 1e4 * base * max(1.0, abs(loss_scale)) * scale
    return rtol, atol


def _finding(code: str, src: str, message: str) -> LintDiagnostic:
    path, _, lineno = src.rpartition(":")
    line = int(lineno) if lineno.isdigit() else 0
    return LintDiagnostic(path or src or "<gradcheck>", line, 0, code, message)


def gradcheck_case(case: Case, seed: int = 0) -> dict:
    """Run one case; returns a JSON-ready result with pass/fail detail."""
    # crc32 keys the rng stably per case (hash() is salted per process).
    rng = np.random.default_rng([seed, zlib.crc32(case.name.encode())])
    fn, arrays = case.build(rng)
    arrays = tuple(np.asarray(a, dtype=np.float64) for a in arrays)

    # Analytic pass, capturing the tape to attribute the op's source.
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with capture_tape() as cap:
        out = fn(*leaves)
        w = rng.standard_normal(out.shape)
        out.backward(w)
    analytic = [
        np.zeros_like(a) if t.grad is None else np.asarray(t.grad, dtype=np.float64)
        for a, t in zip(arrays, leaves)
    ]
    src = next((r.src for r in cap.records if r.op == case.op_kind), "")

    def loss(values) -> float:
        with no_grad():
            result = fn(*[Tensor(v) for v in values])
        return float((result.data * w).sum())

    base_loss = loss(arrays)
    rtol, atol = fd_tolerance(base_loss, case.scale)

    max_abs_err = 0.0
    max_rel_err = 0.0
    worst: tuple | None = None
    for k, a in enumerate(arrays):
        for idx in np.ndindex(a.shape):
            h = _EPS ** (1.0 / 3.0) * max(1.0, abs(a[idx]))
            bumped = [v.copy() if i == k else v for i, v in enumerate(arrays)]
            bumped[k][idx] += h
            hi = loss(bumped)
            bumped[k][idx] -= 2.0 * h
            lo = loss(bumped)
            numeric = (hi - lo) / (2.0 * h)
            got = analytic[k][idx]
            err = abs(got - numeric)
            denom = max(abs(got), abs(numeric), 1.0)
            max_abs_err = max(max_abs_err, err)
            max_rel_err = max(max_rel_err, err / denom)
            if err > atol + rtol * max(abs(got), abs(numeric)):
                if worst is None or err > worst[3]:
                    worst = (k, idx, numeric, err, got)

    result = {
        "name": case.name,
        "target": case.target,
        "op_kind": case.op_kind,
        "code": case.code,
        "elements": int(sum(a.size for a in arrays)),
        "max_abs_err": float(max_abs_err),
        "max_rel_err": float(max_rel_err),
        "rtol": rtol,
        "atol": atol,
        "passed": worst is None,
        "src": src,
    }
    if worst is not None:
        k, idx, numeric, err, got = worst
        result["worst"] = {
            "arg": k,
            "index": list(idx),
            "analytic": float(got),
            "numeric": float(numeric),
            "abs_err": float(err),
        }
    return result


# -- kink-point probes ---------------------------------------------------------


def _probe_relu_at_zero() -> list[str]:
    x = Tensor(np.array([-1.0, 0.0, 0.0, 2.0]), requires_grad=True)
    w = np.array([3.0, 5.0, -7.0, 2.0])
    x.relu().backward(w)
    g = x.grad
    errors = []
    if not np.all(np.isfinite(g)):
        errors.append(f"relu gradient not finite at kink: {g}")
    # Subgradient hull at 0 is [0, 1] * w; elsewhere exact.
    for i in (1, 2):
        lo, hi = sorted((0.0, w[i]))
        if not (lo - 1e-12 <= g[i] <= hi + 1e-12):
            errors.append(
                f"relu gradient {g[i]} at x=0 outside subgradient hull "
                f"[{lo}, {hi}]"
            )
    if g[0] != 0.0 or g[3] != w[3]:
        errors.append(f"relu gradient wrong away from kink: {g}")
    return errors


def _probe_max_ties() -> list[str]:
    errors = []
    # Row 0 is a 3-way tie; row 1 has a 2-way tie among {2.0, 2.0}.
    data = np.array([[1.0, 1.0, 1.0], [2.0, 0.0, 2.0]])
    x = Tensor(data.copy(), requires_grad=True)
    w = np.array([6.0, -3.0])
    x.max(axis=1).backward(w)
    g = x.grad
    if not np.all(np.isfinite(g)):
        errors.append(f"max gradient not finite at ties: {g}")
    # Conservation: mass over each reduced slot equals the cotangent.
    sums = g.sum(axis=1)
    if not np.allclose(sums, w, atol=1e-12):
        errors.append(f"max tie gradient mass {sums} != cotangent {w}")
    # Mass must stay on argmax entries only.
    if g[1, 1] != 0.0:
        errors.append("max routed gradient to a non-argmax entry")
    # The substrate's convention: even split among ties.
    if not np.allclose(g[0], w[0] / 3.0) or not np.allclose(
        g[1, [0, 2]], w[1] / 2.0
    ):
        errors.append(f"max tie split not even: {g}")
    return errors


def _probe_max_pool_ties() -> list[str]:
    errors = []
    # One all-equal 2x2 window: a 4-way tie.
    x = Tensor(np.full((1, 1, 2, 2), 3.0), requires_grad=True)
    w = np.full((1, 1, 1, 1), 8.0)
    F.max_pool2d(x, 2).backward(w)
    g = x.grad
    if not np.all(np.isfinite(g)):
        errors.append(f"max_pool2d gradient not finite at ties: {g}")
    if not np.isclose(g.sum(), 8.0, atol=1e-12):
        errors.append(f"max_pool2d tie mass {g.sum()} != cotangent 8.0")
    # Consistency with Tensor.max: even split among the 4 tied entries.
    if not np.allclose(g, 2.0):
        errors.append(f"max_pool2d tie split not even: {g}")
    return errors


_KINK_PROBES = {
    "relu": _probe_relu_at_zero,
    "max": _probe_max_ties,
    "max_pool2d": _probe_max_pool_ties,
}


def run_kink_probes(op_kinds=None) -> tuple[list[dict], list[LintDiagnostic]]:
    """Run subgradient probes (all, or only for the given op kinds)."""
    results: list[dict] = []
    findings: list[LintDiagnostic] = []
    for op, probe in _KINK_PROBES.items():
        if op_kinds is not None and op not in set(op_kinds):
            continue
        errors = probe()
        results.append({"name": f"kink/{op}", "op_kind": op, "passed": not errors})
        for message in errors:
            findings.append(
                _finding("REPRO204", "", f"[kink:{op}] {message}")
            )
    return results, findings


def run_gradcheck(op_kinds=None, *, seed: int = 0) -> dict:
    """Audit primitives: all registered cases, or one model's op kinds.

    Returns ``{"cases": [...], "findings": [...], "checked_ops": [...]}``
    where findings are ``# noqa``-filtered REPRO202/204 diagnostics.
    """
    cases = CASES if op_kinds is None else cases_for(op_kinds)
    results = []
    findings: list[LintDiagnostic] = []
    for case in cases:
        result = gradcheck_case(case, seed=seed)
        results.append(result)
        if not result["passed"]:
            w = result.get("worst", {})
            findings.append(
                _finding(
                    case.code,
                    result["src"],
                    f"[{case.name}] analytic {w.get('analytic')} vs "
                    f"central-difference {w.get('numeric')} "
                    f"(|err| {w.get('abs_err'):.3e} > atol {result['atol']:.3e} "
                    f"+ rtol {result['rtol']:.3e})",
                )
            )
    kink_results, kink_findings = run_kink_probes(op_kinds)
    results.extend(kink_results)
    findings.extend(kink_findings)
    return {
        "cases": results,
        "findings": filter_noqa(findings),
        "checked_ops": sorted({c.op_kind for c in cases}),
    }
