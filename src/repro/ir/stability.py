"""Numerical-stability passes over the value-interval domain.

Every node carries a conservatively-propagated value interval
(:mod:`repro.ir.symbolic`).  These checks walk the graph and flag the
places where the interval proves a hazard *reachable* — and, just as
importantly, stay silent where a stabilization pattern (max-shift
before ``exp``, ``eps`` added under a root, a clamped normalizer)
provably bounds the operand:

* ``REPRO101`` — ``exp`` whose input's upper bound exceeds
  ``log(float_max)`` for the node dtype.  A softmax written as
  ``exp(x) / sum(exp(x))`` trips this; the substrate's max-shifted
  softmax does not, because ``x - max(x)`` is known ≤ 0.
* ``REPRO102`` — ``log`` with an operand interval reaching ≤ 0,
  division with 0 inside the divisor interval, or a negative power with
  0 inside the base interval.  ``log(sum(exp(x - max(x))))`` is exempt:
  the sum is known ≥ 1.
* ``REPRO103`` — implicit float-widening promotion: a float array
  operand combined into a wider float result dtype.  Exact python
  scalars (weak promotion) and bool/int masks are not flagged.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph, Node
from .passes import node_finding, register_pass

__all__ = ["check_stability"]

_DIV_OPS = ("divide",)
_LOG_OPS = ("log",)


def _exp_limit(dtype: np.dtype) -> float:
    try:
        return float(np.log(np.finfo(dtype).max))
    except ValueError:
        # Non-float dtype: numpy's exp upcasts integers to float64, so
        # the float64 bound is the one the runtime actually enforces.
        return float(np.log(np.finfo(np.float64).max))


def _is_weak(node: Node) -> bool:
    return bool(node.meta.get("weak")) and node.kind == "const"


def check_stability(graph: Graph) -> dict:
    """Interval-domain stability findings for ``graph``.

    Overflow thresholds follow each node's traced dtype: a graph traced
    at float32 is checked against the float32 exp-overflow bound
    (~88.7), not the float64 one (~709.8).
    """
    findings = []
    for node in graph:
        if node.kind != "op":
            continue
        ins = [graph[i] for i in node.inputs]

        if node.op == "exp":
            hi = ins[0].vrange[1]
            limit = _exp_limit(node.dtype)
            if hi > limit:
                bound = "unbounded" if math.isinf(hi) else f"<= {hi:.3g}"
                findings.append(
                    node_finding(
                        node,
                        "REPRO101",
                        f"exp() of a value {bound} overflows {node.dtype} "
                        f"(limit ~{limit:.1f}); subtract the max first "
                        "(numerically stable softmax/log-sum-exp)",
                    )
                )

        elif node.op in _LOG_OPS:
            lo = ins[0].vrange[0]
            if lo < 0.0 or (lo == 0.0 and not _excludes_zero(ins[0])):
                findings.append(
                    node_finding(
                        node,
                        "REPRO102",
                        f"log() operand interval [{lo:.3g}, "
                        f"{ins[0].vrange[1]:.3g}] reaches <= 0; add an eps "
                        "floor or stabilize the summand",
                    )
                )

        elif node.op in _DIV_OPS and len(ins) == 2:
            lo, hi = ins[1].vrange
            if lo <= 0.0 <= hi and not _excludes_zero(ins[1]):
                findings.append(
                    node_finding(
                        node,
                        "REPRO102",
                        f"divisor interval [{lo:.3g}, {hi:.3g}] contains 0; "
                        "clamp with eps before dividing",
                    )
                )

        elif node.op == "power" and len(ins) == 2:
            exp_lo, exp_hi = ins[1].vrange
            base_lo, base_hi = ins[0].vrange
            if exp_hi < 0.0 and base_lo <= 0.0 <= base_hi:
                findings.append(
                    node_finding(
                        node,
                        "REPRO102",
                        f"negative power of an interval [{base_lo:.3g}, "
                        f"{base_hi:.3g}] containing 0 diverges; add eps to "
                        "the base",
                    )
                )

        # REPRO103: implicit float widening.  Casts inserted explicitly
        # (op == "cast") are visible and intentional; flag only silent
        # promotion inside arithmetic.
        if node.op != "cast" and node.dtype.kind == "f":
            for src in ins:
                if (
                    src.dtype.kind == "f"
                    and src.dtype.itemsize < node.dtype.itemsize
                    and src.shape  # scalars promote weakly / harmlessly
                    and not _is_weak(src)
                ):
                    findings.append(
                        node_finding(
                            node,
                            "REPRO103",
                            f"{src.dtype} operand silently promoted to "
                            f"{node.dtype}; cast explicitly to keep the "
                            "compute dtype intentional",
                        )
                    )
                    break

    return {"findings": findings}


def _excludes_zero(node: Node) -> bool:
    """Whether a structural pattern proves the value is bounded away from 0.

    The interval domain cannot always carry a strict bound (e.g. the
    stabilized softmax denominator has lo exactly 1.0, which is fine and
    handled by the plain interval check); this hook exists for patterns
    whose *interval* includes 0 but whose structure excludes it.
    Currently: none needed — kept as the single extension point.
    """
    return False


@register_pass("stability")
def _stability_pass(graph: Graph) -> dict:
    return check_stability(graph)
