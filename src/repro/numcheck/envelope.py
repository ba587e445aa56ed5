"""First-order rounding-error envelopes over the forward tensor IR.

Every SSA node gets a :class:`NodeEnvelope` — a linearized model of the
worst-case per-element absolute rounding error of its value:

``delta(n) = seed(n) * u  +  sum_i coeff(n, i) * delta(input_i)``

where ``u`` is the unit roundoff of the compute dtype (2^-24 for
float32, 2^-53 for float64).  The linearization keeps the envelope
*u-linear*: one structural propagation serves every precision, so the
float32 and float64 envelopes come from the same sweep evaluated at
two values of ``u``.

Magnitudes come from two sources, and we take the tighter:

* the value-interval domain that :mod:`repro.ir.symbolic` already
  propagates (``node.vrange``), and
* per-op magnitude rules (e.g. ``|a @ b| <= k * |a| * |b|``) that stay
  finite where the sign-only interval contraction does not.

A reverse sweep computes each node's *amplification* — the sensitivity
of the chosen outputs' error to that node's local seed.  The identity

``delta(out) == sum_n amp(n) * seed(n) * u``

decomposes the certified bound into per-node contributions, which
makes the envelope auditable in tests.

All arithmetic is plain python floats (IEEE double, round-to-nearest),
so envelopes are bitwise deterministic across runs and machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..ir.graph import Graph, Node

__all__ = [
    "UNIT_ROUNDOFF",
    "NodeEnvelope",
    "ForwardEnvelope",
    "forward_envelope",
    "unit_roundoff",
]

#: Unit roundoff (half ulp of 1.0) per IEEE dtype.
UNIT_ROUNDOFF = {
    "float32": 2.0 ** -24,
    "float64": 2.0 ** -53,
    "float16": 2.0 ** -11,
}

_INF = math.inf
#: Magnitude floor — keeps relative quantities defined at exact zeros.
_TINY = 1e-300

#: Documented *conditioning assumptions* for normalizers (see
#: docs/NUMERICS.md).  The interval domain alone proves only
#: ``var >= 0``, under which LayerNorm's worst-case amplification is
#: ``1/sqrt(eps)`` per layer and every deep bound is vacuous.
#: Certificates are therefore issued under two explicit regime
#: assumptions, recorded in every bundle:
#:
#: * ``VAR_FLOOR`` — every ``var(x) + eps`` normalizer denominator is
#:   at least ``eps + VAR_FLOOR`` (absolute floor, used for bare
#:   ``1/sqrt(var+eps)`` magnitudes), and
#: * ``REL_VAR_FLOOR`` — a normalizer input's variance is at least
#:   ``REL_VAR_FLOOR * sup|x|^2``, i.e. its coefficient of variation is
#:   at least ``sqrt(REL_VAR_FLOOR)``.  A nearly-constant vector at
#:   large scale makes LayerNorm genuinely ill-conditioned (the true
#:   worst case, not an analysis artifact), so a finite certificate
#:   *requires* excluding that regime; REPRO803 screens the sites where
#:   the assumption is load-bearing.
VAR_FLOOR = 1e-2
REL_VAR_FLOOR = 0.25


def unit_roundoff(dtype) -> float:
    """Unit roundoff for ``dtype`` (float64's for non-float dtypes)."""
    return UNIT_ROUNDOFF.get(np.dtype(dtype).name, UNIT_ROUNDOFF["float64"])


def _mul(a: float, b: float) -> float:
    """inf-safe product: anything times a hard zero is zero."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


@dataclass
class NodeEnvelope:
    """Linearized error model of one SSA node.

    ``mag``
        Supremum of ``|value|`` per element (finite where provable).
    ``coeffs``
        ``(input_node_id, c)`` pairs: incoming absolute error is
        amplified by ``c`` through this op.
    ``seed``
        Local rounding mass *per unit roundoff*: the op's own
        contribution to the output error is ``seed * u``.
    ``exact``
        True for ops that introduce no rounding of their own (views,
        pad, gather, comparisons).
    ``cap``
        Structural bound on the node's absolute error, independent of
        incoming error.  A max-shifted softmax quotient, for instance,
        is *computed* in ``[0, 1 + O(u)]`` no matter how wrong its
        scores are (the shift subtracts the computed max from the
        computed scores, so every computed exponent is <= 0), and its
        true value lies in ``[0, 1]`` — so the error saturates at
        ``1 + O(u)`` where the linear model diverges.
    """

    mag: float
    coeffs: tuple = ()
    seed: float = 0.0
    exact: bool = False
    note: str = ""
    cap: float = _INF


@dataclass
class ForwardEnvelope:
    """Envelope of a whole forward graph at one compute precision."""

    graph: Graph
    u: float
    nodes: dict = field(default_factory=dict)   # id -> NodeEnvelope
    deltas: dict = field(default_factory=dict)  # id -> absolute error bound
    amps: dict = field(default_factory=dict)    # id -> output amplification
    unsupported: tuple = ()

    def mag(self, node_id: int) -> float:
        return self.nodes[node_id].mag

    def delta(self, node_id: int) -> float:
        return self.deltas[node_id]

    def relative(self, node_id: int) -> float:
        """Scale-relative error bound: ``delta / max(|value|)``.

        Relative to the *output scale*, not element-wise — elements near
        zero of a large-dynamic-range array carry the array's absolute
        error, which is the quantity the shadow harness measures.
        """
        mag = self.nodes[node_id].mag
        delta = self.deltas[node_id]
        if math.isinf(delta) or math.isnan(delta):
            return _INF
        return delta / max(mag, _TINY)

    def contribution(self, node_id: int) -> float:
        """This node's share of the output error: ``amp * seed * u``."""
        env = self.nodes[node_id]
        return _mul(self.amps.get(node_id, 0.0), env.seed) * self.u

    def output_delta(self) -> float:
        return max(
            (self.deltas[i] for i in self.graph.outputs), default=0.0
        )

    def output_relative(self) -> float:
        return max(
            (self.relative(i) for i in self.graph.outputs), default=0.0
        )


def _mag_from_vrange(node: Node) -> float:
    lo, hi = node.vrange
    if math.isinf(lo) or math.isinf(hi):
        return _INF
    return max(abs(lo), abs(hi))


def _lo_abs(node: Node) -> float:
    """Infimum of ``|value|`` — 0 unless the interval excludes zero."""
    lo, hi = node.vrange
    if lo > 0.0:
        return lo
    if hi < 0.0:
        return -hi
    return 0.0


def _softmax_quotient(node: Node, graph: Graph) -> bool:
    """True for ``exp(s) / sum(exp(s))`` with a max-shifted ``s``.

    The shift subtracts the *computed* max of the *computed* scores, so
    every computed exponent is <= 0, every computed exp is <= 1, and
    the computed denominator dominates its largest term — the computed
    quotient lands in ``[0, 1 + O(u)]`` regardless of how wrong the
    scores are.  Since the true quotient is in ``[0, 1]``, the error
    saturates where the linear model diverges.
    """
    num, den = (graph[i] for i in node.inputs)
    if num.kind != "op" or num.op != "exp":
        return False
    shift = graph[num.inputs[0]]
    if shift.meta.get("max_shifted") is None and not (shift.vrange[1] <= 0.0):
        return False
    return den.kind == "op" and den.op == "sum" and num.id in den.inputs


def _var_plus_eps(node: Node, graph: Graph):
    """Return the eps constant if ``node`` is ``var(x) + eps``, else None."""
    if node.op != "add" or node.kind != "op":
        return None
    a, b = (graph[i] for i in node.inputs)
    for var, eps in ((a, b), (b, a)):
        if var.kind == "op" and var.op == "var" and eps.kind == "const":
            lo, hi = eps.vrange
            if lo == hi and lo > 0.0:
                return lo
    return None


def _assumed_lo(node: Node, graph: Graph) -> float:
    """``_lo_abs`` strengthened by the VAR_FLOOR normalizer assumption."""
    lo = _lo_abs(node)
    if node.kind != "op":
        return lo
    eps = _var_plus_eps(node, graph)
    if eps is not None:
        return max(lo, eps + VAR_FLOOR)
    if node.op == "sqrt":
        return max(lo, math.sqrt(_assumed_lo(graph[node.inputs[0]], graph)))
    return lo


def _match_normalizer(node: Node, graph: Graph):
    """Match ``(x - mean(x)) * (1 / sqrt(var(x) + eps))``; return parts."""
    if node.op != "multiply" or len(node.inputs) != 2:
        return None
    a, b = (graph[i] for i in node.inputs)
    for centered, inv in ((a, b), (b, a)):
        if centered.kind != "op" or centered.op != "subtract":
            continue
        x, m = (graph[i] for i in centered.inputs)
        if m.kind != "op" or m.op != "mean" or x.id not in m.inputs:
            continue
        if inv.kind != "op" or inv.op != "divide":
            continue
        den = graph[inv.inputs[1]]
        if den.kind != "op" or den.op != "sqrt":
            continue
        inner = graph[den.inputs[0]]
        eps = _var_plus_eps(inner, graph)
        if eps is None:
            continue
        var = next(
            graph[i] for i in inner.inputs
            if graph[i].kind == "op" and graph[i].op == "var"
        )
        d = _axes_count(var, graph[var.inputs[0]])
        return {"x": x, "d": d, "eps": eps}
    return None


def _normalized_bound(node: Node, graph: Graph):
    """Analytic bound for a ``(x - mean(x)) * rsqrt(var(x) + eps)`` product.

    ``sum(x_hat^2) = d * var / (var + eps) < d`` holds identically, so
    ``|x_hat| < sqrt(d)`` regardless of the input interval — the bound
    the plain interval product (``2 * |x| / sqrt(eps)``) cannot see.
    """
    m = _match_normalizer(node, graph)
    if m is None:
        return None
    return math.sqrt(float(m["d"]))


def _normalizer_envelope(node: Node, graph: Graph, fenv: "ForwardEnvelope"):
    """Composite rule for a detected normalization (see REL_VAR_FLOOR).

    Node-by-node envelopes of ``x_hat = (x - mean(x)) * rsqrt(var + eps)``
    suffer the classic interval dependency problem: they pair the
    *maximal* absolute error of ``var`` (attained at ``|x| = sup``) with
    the *minimal* denominator (attained near-constant ``x``) — two
    mutually exclusive worst cases whose product diverges with scale and
    makes deep LayerNorm stacks vacuous.  Treating the pattern as one
    operator linearized under ``var >= REL_VAR_FLOOR * sup|x|^2`` keeps
    the extremes coupled:

    ``|d x_hat| <= 2s|dx| + |x - mu| * (s^3/2) * 4 sup|x| |dx|
               <= 2s (1 + 2/rho) |dx|``   with ``s^2 sup|x|^2 <= 1/rho``.
    """
    m = _match_normalizer(node, graph)
    if m is None:
        return None
    x, d, eps = m["x"], m["d"], m["eps"]
    mx = fenv.nodes[x.id].mag
    if not math.isfinite(mx) or mx <= 0.0:
        return None
    rho = REL_VAR_FLOOR
    s_max = 1.0 / math.sqrt(rho * mx * mx + eps)
    root_d = math.sqrt(float(d))
    coeff_x = 2.0 * s_max * (1.0 + 2.0 / rho)
    # Own rounding mass per unit roundoff: the mean and var summations
    # routed through the composite's sensitivities, the subtract at the
    # input scale, and the sqrt/divide/multiply chain at output scale.
    mean_seed = _sum_seed(d, mx) / d + mx
    var_seed = _sum_seed(d, mx * mx) / d + 3.0 * mx * mx
    seed = (
        s_max * mean_seed
        + mx * s_max ** 3 * var_seed
        + 2.0 * mx * s_max
        + 3.0 * root_d
    )
    return NodeEnvelope(
        mag=min(_mag_from_vrange(node), root_d),
        coeffs=((x.id, coeff_x),), seed=seed,
        note="normalizer composite",
    )


def _axes_count(node: Node, src: Node) -> int:
    """Number of elements reduced per output element."""
    attrs = dict(node.attrs)
    axes = attrs.get("axes")
    if axes is None:
        total = int(np.prod(src.shape)) if src.shape else 1
        out = int(np.prod(node.shape)) if node.shape else 1
        return max(1, total // max(out, 1))
    count = 1
    for ax in axes:
        count *= src.shape[ax]
    return max(1, int(count))


def _einsum_contracted(node: Node, ins: list) -> int:
    """Product of contracted-label extents for an einsum node."""
    subscripts = dict(node.attrs).get("subscripts", "")
    if "->" not in subscripts:
        return 1
    lhs, rhs = subscripts.split("->")
    terms = lhs.split(",")
    extents: dict = {}
    for term, src in zip(terms, ins):
        for label, dim in zip(term, src.shape):
            extents[label] = max(extents.get(label, 1), int(dim))
    k = 1
    for label, dim in extents.items():
        if label not in rhs:
            k *= dim
    return max(1, k)


def _sum_seed(count: int, mag_in: float) -> float:
    """Rounding mass of a ``count``-term sequential summation.

    Classic bound: ``|fl(sum) - sum| <= (count - 1) * u * sum |x_i|``
    (first order), and ``sum |x_i| <= count * mag_in``.
    """
    return _mul(float(count - 1), _mul(float(count), mag_in))


def _envelope_for(node: Node, graph: Graph, fenv: "ForwardEnvelope") -> NodeEnvelope:
    """Per-op forward rule.  Returns the linearized local model.

    Input magnitudes come from the already-propagated envelope (the
    min of vrange- and op-rule-derived bounds), not the raw vrange —
    the op-rule bound is what stays finite through the sign-only
    matmul/einsum interval contraction.
    """
    ins = [graph[i] for i in node.inputs]
    mags = [fenv.nodes[n.id].mag for n in ins]
    vmag = _mag_from_vrange(node)
    op = node.op

    def env(mag, coeffs=(), seed=None, exact=False, note=""):
        # Default local rounding: one correctly-rounded op contributes
        # at most ``u * |result|``.
        if seed is None:
            seed = 0.0 if exact else mag
        return NodeEnvelope(
            mag=mag, coeffs=tuple(coeffs), seed=seed, exact=exact,
            note=note,
        )

    if op in ("add", "subtract"):
        mag = min(vmag, mags[0] + mags[1])
        return env(mag, [(ins[0].id, 1.0), (ins[1].id, 1.0)])
    if op == "negative":
        return env(min(vmag, mags[0]), [(ins[0].id, 1.0)], exact=True)
    if op == "multiply":
        comp = _normalizer_envelope(node, graph, fenv)
        if comp is not None:
            return comp
        mag = min(vmag, _mul(mags[0], mags[1]))
        norm = _normalized_bound(node, graph)
        if norm is not None:
            mag = min(mag, norm)
        return env(mag, [(ins[0].id, mags[1]), (ins[1].id, mags[0])])
    if op == "divide":
        blo = _assumed_lo(ins[1], graph)
        if blo == 0.0:
            return env(vmag, [(ins[0].id, _INF), (ins[1].id, _INF)],
                       note="divisor interval reaches 0")
        mag = min(vmag, mags[0] / blo)
        e = env(mag, [(ins[0].id, 1.0 / blo),
                      (ins[1].id, mags[0] / (blo * blo))])
        if _softmax_quotient(node, graph):
            e.mag = min(e.mag, 1.0)
            e.cap = 1.0 + 4.0 * fenv.u
        return e
    if op == "exp":
        # d(exp x) = exp(x) dx <= mag_out * dx
        mag = min(vmag, math.exp(min(mags[0], 709.0)))
        return env(mag, [(ins[0].id, mag)])
    if op == "log":
        alo = _assumed_lo(ins[0], graph)
        if alo == 0.0:
            return env(vmag, [(ins[0].id, _INF)],
                       note="log operand interval reaches 0")
        return env(vmag, [(ins[0].id, 1.0 / alo)])
    if op == "sqrt":
        alo = _assumed_lo(ins[0], graph)
        coeff = _INF if alo == 0.0 else 0.5 / math.sqrt(alo)
        return env(min(vmag, math.sqrt(mags[0])), [(ins[0].id, coeff)])
    if op == "tanh":
        return env(min(vmag, 1.0), [(ins[0].id, 1.0)])
    if op == "abs":
        return env(min(vmag, mags[0]), [(ins[0].id, 1.0)], exact=True)
    if op == "power":
        # Exponent is a traced const scalar in this substrate.
        p_lo, p_hi = ins[1].vrange
        if p_lo == p_hi and not math.isinf(p_lo):
            p = p_lo
            alo = _assumed_lo(ins[0], graph)
            if p == 2.0:
                return env(min(vmag, mags[0] ** 2),
                           [(ins[0].id, 2.0 * mags[0]), (ins[1].id, 0.0)])
            if p == 0.5:
                coeff = _INF if alo == 0.0 else 0.5 / math.sqrt(alo)
                return env(min(vmag, math.sqrt(mags[0])),
                           [(ins[0].id, coeff), (ins[1].id, 0.0)])
            if p == p // 1 and p > 0:
                deriv = abs(p) * (mags[0] ** max(p - 1, 0.0))
                return env(min(vmag, mags[0] ** p),
                           [(ins[0].id, deriv), (ins[1].id, 0.0)])
            if p < 0:
                if alo == 0.0:
                    return env(vmag, [(ins[0].id, _INF), (ins[1].id, 0.0)],
                               note="negative power of interval reaching 0")
                mag = min(vmag, alo ** p)
                return env(mag, [(ins[0].id, abs(p) * alo ** (p - 1.0)),
                                 (ins[1].id, 0.0)])
        return env(vmag, [(ins[0].id, _INF), (ins[1].id, _INF)],
                   note="non-constant exponent")
    if op in ("maximum", "minimum"):
        mag = min(vmag, max(mags))
        return env(mag, [(ins[0].id, 1.0), (ins[1].id, 1.0)], seed=0.0,
                   exact=True)
    if op == "where":
        # inputs: (condition, x, y); the selection itself is exact.
        mag = min(vmag, max(mags[1], mags[2]))
        return env(mag, [(ins[1].id, 1.0), (ins[2].id, 1.0)], exact=True)
    if op in ("greater", "greater_equal", "less", "less_equal"):
        return env(1.0, [], exact=True)
    if op in (
        "reshape", "copy_reshape", "copy", "transpose", "slice", "squeeze",
        "expand_dims", "broadcast", "repeat", "pad", "im2col",
    ):
        # Data movement: elements are copied, never rounded.
        mag = min(vmag, max(mags, default=0.0))
        return env(mag, [(n.id, 1.0) for n in ins], exact=True)
    if op in ("concatenate", "stack"):
        mag = min(vmag, max(mags, default=0.0))
        return env(mag, [(n.id, 1.0) for n in ins], exact=True)
    if op == "cast":
        # Rounding to the target dtype: one half-ulp of the value.
        mag = min(vmag, mags[0])
        return env(mag, [(ins[0].id, 1.0)], seed=mag)
    if op in ("sum", "mean"):
        count = _axes_count(node, ins[0])
        seed = _sum_seed(count, mags[0])
        coeff = float(count)
        mag = min(vmag, _mul(float(count), mags[0]))
        if op == "mean":
            seed = seed / count + mags[0]  # summation + final divide
            coeff = 1.0
            mag = min(vmag, mags[0])
        return env(mag, [(ins[0].id, coeff)], seed=seed)
    if op == "var":
        count = _axes_count(node, ins[0])
        mag = min(vmag, mags[0] ** 2)
        seed = _sum_seed(count, mags[0] ** 2) / max(count, 1) + 3.0 * mag
        return env(mag, [(ins[0].id, 4.0 * mags[0])], seed=seed)
    if op in ("amax", "amin", "max", "min"):
        return env(min(vmag, mags[0]), [(ins[0].id, 1.0)], exact=True)
    if op == "matmul":
        k = int(ins[0].shape[-1]) if ins[0].shape else 1
        mag = min(vmag, _mul(float(k), _mul(mags[0], mags[1])))
        seed = _mul(float(k), _mul(float(k), _mul(mags[0], mags[1])))
        return env(mag, [(ins[0].id, _mul(float(k), mags[1])),
                         (ins[1].id, _mul(float(k), mags[0]))], seed=seed)
    if op == "einsum":
        k = _einsum_contracted(node, ins)
        prod_all = 1.0
        for m in mags:
            prod_all = _mul(prod_all, m)
        coeffs = []
        for i, src in enumerate(ins):
            others = 1.0
            for j, m in enumerate(mags):
                if j != i:
                    others = _mul(others, m)
            coeffs.append((src.id, _mul(float(k), others)))
        mag = min(vmag, _mul(float(k), prod_all))
        seed = _mul(float(k), _mul(float(k), prod_all))
        return env(mag, coeffs, seed=seed)
    if op == "col2im":
        # Scatter-add: each output cell accumulates up to kernel^2
        # overlapping patch entries.
        kernel = dict(node.attrs).get("kernel", 1)
        overlap = int(kernel) ** 2
        mag = min(vmag, _mul(float(overlap), mags[0]))
        seed = _sum_seed(overlap, mags[0])
        return env(mag, [(ins[0].id, float(overlap))], seed=seed)
    return NodeEnvelope(mag=vmag, coeffs=tuple((n.id, _INF) for n in ins),
                        seed=_INF, note=f"unsupported op {op!r}")


def forward_envelope(graph: Graph, *, u: float) -> ForwardEnvelope:
    """Propagate rounding-error envelopes through ``graph`` at roundoff ``u``.

    Runs the forward delta sweep and the reverse amplification sweep;
    the returned object satisfies (up to float evaluation order)
    ``output_delta() == sum_n contribution(n)`` for finite envelopes on
    graphs where no structural ``cap`` saturates (``<=`` in general —
    the amplification sweep does not model saturation, so the
    contribution decomposition stays an upper bound).
    """
    fenv = ForwardEnvelope(graph=graph, u=u)
    unsupported = []
    for node in graph:
        if node.kind != "op":
            lo, hi = node.vrange
            mag = _INF if math.isinf(lo) or math.isinf(hi) else max(
                abs(lo), abs(hi)
            )
            # Leaves are exact as stored; a float32 leaf already *is*
            # the float32 value, so no quantization seed here — the
            # cross-precision cost of storage is priced by the cast
            # rule.
            fenv.nodes[node.id] = NodeEnvelope(mag=mag, exact=True)
            fenv.deltas[node.id] = 0.0
            continue
        env = _envelope_for(node, graph, fenv)
        if env.note.startswith("unsupported"):
            unsupported.append(node.op)
        fenv.nodes[node.id] = env
        delta = _mul(env.seed, u)
        for src_id, coeff in env.coeffs:
            delta += _mul(coeff, fenv.deltas[src_id])
        fenv.deltas[node.id] = min(delta, env.cap)

    # Reverse amplification sweep from the graph outputs.
    amps = {i: 0.0 for i in fenv.nodes}
    for out_id in graph.outputs:
        amps[out_id] = 1.0
    for node in reversed(list(graph)):
        a = amps.get(node.id, 0.0)
        if a == 0.0 or node.kind != "op":
            continue
        for src_id, coeff in fenv.nodes[node.id].coeffs:
            amps[src_id] = amps[src_id] + _mul(a, coeff)
    fenv.amps = amps
    fenv.unsupported = tuple(sorted(set(unsupported)))
    return fenv
