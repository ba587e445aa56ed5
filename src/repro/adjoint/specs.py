"""Machine-checkable vjp specs for every differentiable primitive.

One :class:`Case` = one concrete configuration of one primitive (op,
shapes, stride/padding/axis/keepdims, broadcast pattern) plus a builder
that produces the callable and its leaf arrays.  The registry is the
single source of truth for three consumers:

* the derivative audit harness (:mod:`repro.adjoint.gradcheck`) runs a
  central-difference check per case — O(#op-kinds), not O(#params);
* model audits (``repro gradcheck <model>``) select the cases whose
  ``op_kind`` appears on the model's captured tape;
* the coverage test (``tests/adjoint/test_gradcheck_ops.py``) asserts
  that every public op in ``repro.nn.functional.__all__`` and every
  differentiable ``Tensor`` method is targeted by at least one case.

``code`` is ``REPRO204`` for plain derivative checks and ``REPRO202``
for the dedicated broadcast configurations that exercise the
``_unbroadcast`` reduction contract.  ``scale`` relaxes the float64
tolerance model for ops with deeper accumulation chains (convolutions,
normalizations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import concatenate, stack

__all__ = [
    "Case",
    "CASES",
    "cases_for",
    "op_kinds",
    "covered_targets",
    "UNCOVERED",
]


@dataclass(frozen=True)
class Case:
    """One gradcheckable configuration of one primitive."""

    name: str  # unique, e.g. "conv2d/k3-s2-p1-bias"
    target: str  # public symbol covered ("conv2d", "Tensor.__add__", ...)
    op_kind: str  # op name this case records on the tape
    build: Callable[[np.random.Generator], tuple[Callable, tuple[np.ndarray, ...]]]
    scale: float = 1.0  # tolerance multiplier (accumulation depth)
    code: str = "REPRO204"


def _n(rng, *shape):
    return rng.standard_normal(shape)


def _away_from_zero(a, margin=0.25):
    """Shift values out of (-margin, margin): keeps FD clear of kinks."""
    return a + np.sign(a) * margin + (a == 0) * margin


def _positive(a, floor=0.5):
    return np.abs(a) + floor


CASES: list[Case] = []


def _case(name, target, op_kind, *, scale=1.0, code="REPRO204"):
    """Register the decorated builder as a :class:`Case`."""

    def decorator(build):
        CASES.append(Case(name, target, op_kind, build, scale, code))
        return build

    return decorator


# -- arithmetic ----------------------------------------------------------------


@_case("add/same-shape", "Tensor.__add__", "__add__")
def _(rng):
    return lambda a, b: a + b, (_n(rng, 3, 4), _n(rng, 3, 4))


@_case("add/radd-scalar", "Tensor.__radd__", "__add__")
def _(rng):
    return lambda a: 2.5 + a, (_n(rng, 3, 4),)


@_case("add/broadcast-(3,1,4)x(2,4)", "Tensor.__add__", "__add__", code="REPRO202")
def _(rng):
    return lambda a, b: a + b, (_n(rng, 3, 1, 4), _n(rng, 2, 4))


@_case("add/broadcast-size1-(1,1)x(3,4)", "Tensor.__add__", "__add__", code="REPRO202")
def _(rng):
    return lambda a, b: a + b, (_n(rng, 1, 1), _n(rng, 3, 4))


@_case("sub/same-shape", "Tensor.__sub__", "__sub__")
def _(rng):
    return lambda a, b: a - b, (_n(rng, 2, 5), _n(rng, 2, 5))


@_case("sub/rsub-scalar", "Tensor.__rsub__", "__sub__")
def _(rng):
    return lambda a: 1.5 - a, (_n(rng, 4),)


@_case("sub/broadcast-(3,1)x(1,4)", "Tensor.__sub__", "__sub__", code="REPRO202")
def _(rng):
    return lambda a, b: a - b, (_n(rng, 3, 1), _n(rng, 1, 4))


@_case("neg", "Tensor.__neg__", "__neg__")
def _(rng):
    return lambda a: -a, (_n(rng, 3, 4),)


@_case("mul/same-shape", "Tensor.__mul__", "__mul__")
def _(rng):
    return lambda a, b: a * b, (_n(rng, 3, 4), _n(rng, 3, 4))


@_case("mul/rmul-scalar", "Tensor.__rmul__", "__mul__")
def _(rng):
    return lambda a: 3.0 * a, (_n(rng, 2, 3),)


@_case("mul/broadcast-(2,3,1)x(3,4)", "Tensor.__mul__", "__mul__", code="REPRO202")
def _(rng):
    return lambda a, b: a * b, (_n(rng, 2, 3, 1), _n(rng, 3, 4))


@_case("div/same-shape", "Tensor.__truediv__", "__truediv__")
def _(rng):
    return lambda a, b: a / b, (_n(rng, 3, 4), _positive(_n(rng, 3, 4)))


@_case("div/rdiv-scalar", "Tensor.__rtruediv__", "__truediv__")
def _(rng):
    return lambda a: 2.0 / a, (_positive(_n(rng, 3, 4)),)


@_case("div/broadcast-(3,1,4)x(4,)", "Tensor.__truediv__", "__truediv__", code="REPRO202")
def _(rng):
    return lambda a, b: a / b, (_n(rng, 3, 1, 4), _positive(_n(rng, 4)))


@_case("pow/square", "Tensor.__pow__", "__pow__")
def _(rng):
    return lambda a: a**2, (_n(rng, 3, 4),)


@_case("pow/cube", "Tensor.__pow__", "__pow__")
def _(rng):
    return lambda a: a**3, (_n(rng, 2, 5),)


@_case("pow/half-positive-base", "Tensor.__pow__", "__pow__")
def _(rng):
    return lambda a: a**0.5, (_positive(_n(rng, 3, 4)),)


@_case("pow/fractional-positive-base", "Tensor.__pow__", "__pow__")
def _(rng):
    return lambda a: a**1.5, (_positive(_n(rng, 3, 4)),)


@_case("pow/negative-exponent", "Tensor.__pow__", "__pow__")
def _(rng):
    return lambda a: a**-1, (_positive(_n(rng, 3, 4)),)


@_case("pow/zero-exponent-with-zero-base", "Tensor.__pow__", "__pow__")
def _(rng):
    # d/dx x**0 == 0 everywhere, including x == 0 (regression: the
    # naive formula evaluates 0 * 0**-1 == nan there).
    a = _n(rng, 3, 4)
    a.flat[0] = 0.0
    return lambda t: t**0, (a,)


@_case("sqrt", "Tensor.sqrt", "__pow__")
def _(rng):
    return lambda a: a.sqrt(), (_positive(_n(rng, 3, 4)),)


@_case("matmul/2d", "Tensor.__matmul__", "__matmul__")
def _(rng):
    return lambda a, b: a @ b, (_n(rng, 3, 4), _n(rng, 4, 5))


@_case("matmul/batched", "Tensor.__matmul__", "__matmul__")
def _(rng):
    return lambda a, b: a @ b, (_n(rng, 2, 3, 4), _n(rng, 2, 4, 5))


@_case("matmul/broadcast-batch", "Tensor.__matmul__", "__matmul__", code="REPRO202")
def _(rng):
    return lambda a, b: a @ b, (_n(rng, 2, 1, 3, 4), _n(rng, 5, 4, 6))


# -- reductions ----------------------------------------------------------------


@_case("sum/all", "Tensor.sum", "sum")
def _(rng):
    return lambda a: a.sum(), (_n(rng, 3, 4),)


@_case("sum/axis1-keepdims", "Tensor.sum", "sum")
def _(rng):
    return lambda a: a.sum(axis=1, keepdims=True), (_n(rng, 3, 4, 2),)


@_case("sum/axis-tuple", "Tensor.sum", "sum")
def _(rng):
    return lambda a: a.sum(axis=(0, 2)), (_n(rng, 3, 4, 2),)


@_case("mean/all", "Tensor.mean", "sum")
def _(rng):
    return lambda a: a.mean(), (_n(rng, 3, 4),)


@_case("mean/axis-keepdims", "Tensor.mean", "sum")
def _(rng):
    return lambda a: a.mean(axis=-1, keepdims=True), (_n(rng, 2, 3, 4),)


def _distinct(rng, *shape):
    """Values with pairwise gaps: keeps FD away from max ties."""
    a = rng.permutation(np.arange(float(np.prod(shape))))
    return (a.reshape(shape) * 0.37) - 0.5 * float(np.prod(shape)) * 0.37 * 0.5


@_case("max/all", "Tensor.max", "max")
def _(rng):
    return lambda a: a.max(), (_distinct(rng, 3, 4),)


@_case("max/axis-keepdims", "Tensor.max", "max")
def _(rng):
    return lambda a: a.max(axis=1, keepdims=True), (_distinct(rng, 3, 4),)


@_case("max/neg-axis", "Tensor.max", "max")
def _(rng):
    return lambda a: a.max(axis=-1), (_distinct(rng, 2, 3, 4),)


# -- shape manipulation --------------------------------------------------------


@_case("reshape/merge", "Tensor.reshape", "reshape")
def _(rng):
    return lambda a: a.reshape(4, 6), (_n(rng, 2, 3, 4),)


@_case("reshape/infer", "Tensor.reshape", "reshape")
def _(rng):
    return lambda a: a.reshape(-1, 2), (_n(rng, 2, 3, 4),)


@_case("transpose/reverse", "Tensor.transpose", "transpose")
def _(rng):
    return lambda a: a.transpose(), (_n(rng, 2, 3, 4),)


@_case("transpose/negative-axes", "Tensor.transpose", "transpose")
def _(rng):
    return lambda a: a.transpose((0, -1, -2)), (_n(rng, 2, 3, 4),)


@_case("swapaxes", "Tensor.swapaxes", "transpose")
def _(rng):
    return lambda a: a.swapaxes(0, 2), (_n(rng, 2, 3, 4),)


@_case("getitem/strided-slice", "Tensor.__getitem__", "__getitem__")
def _(rng):
    return lambda a: a[::2, 1:], (_n(rng, 5, 4),)


@_case("getitem/int-index", "Tensor.__getitem__", "__getitem__")
def _(rng):
    return lambda a: a[1], (_n(rng, 3, 4),)


@_case("getitem/fancy-repeated", "Tensor.__getitem__", "__getitem__")
def _(rng):
    # Repeated fancy indices must scatter-ADD (np.add.at), not assign.
    idx = np.array([0, 1, 1, 2])
    return lambda a: a[idx], (_n(rng, 3, 4),)


@_case("concatenate/axis1", "concatenate", "concatenate")
def _(rng):
    return (
        lambda a, b, c: concatenate([a, b, c], axis=1),
        (_n(rng, 2, 2), _n(rng, 2, 3), _n(rng, 2, 1)),
    )


@_case("concatenate/neg-axis", "concatenate", "concatenate")
def _(rng):
    return (
        lambda a, b: concatenate([a, b], axis=-1),
        (_n(rng, 2, 3, 2), _n(rng, 2, 3, 4)),
    )


@_case("stack/axis0", "stack", "stack")
def _(rng):
    return (
        lambda a, b, c: stack([a, b, c], axis=0),
        (_n(rng, 2, 3), _n(rng, 2, 3), _n(rng, 2, 3)),
    )


@_case("stack/neg-axis", "stack", "stack")
def _(rng):
    return lambda a, b: stack([a, b], axis=-1), (_n(rng, 2, 3), _n(rng, 2, 3))


# -- elementwise nonlinearities ------------------------------------------------


@_case("exp", "Tensor.exp", "exp")
def _(rng):
    return lambda a: a.exp(), (_n(rng, 3, 4),)


@_case("log", "Tensor.log", "log")
def _(rng):
    return lambda a: a.log(), (_positive(_n(rng, 3, 4)),)


@_case("tanh", "Tensor.tanh", "tanh")
def _(rng):
    return lambda a: a.tanh(), (_n(rng, 3, 4),)


@_case("sigmoid", "Tensor.sigmoid", "sigmoid")
def _(rng):
    return lambda a: a.sigmoid(), (_n(rng, 3, 4),)


@_case("relu/away-from-kink", "Tensor.relu", "relu")
def _(rng):
    return lambda a: a.relu(), (_away_from_zero(_n(rng, 3, 4)),)


@_case("gelu", "Tensor.gelu", "gelu")
def _(rng):
    return lambda a: a.gelu(), (_n(rng, 3, 4),)


# -- nn.functional -------------------------------------------------------------


@_case("pad2d/p2", "pad2d", "pad2d")
def _(rng):
    return lambda a: F.pad2d(a, 2), (_n(rng, 2, 3, 4, 4),)


@_case("conv2d/k3-s1-p0", "conv2d", "conv2d", scale=10.0)
def _(rng):
    return (
        lambda x, w: F.conv2d(x, w),
        (_n(rng, 2, 3, 5, 5), _n(rng, 4, 3, 3, 3)),
    )


@_case("conv2d/k3-s2-p1-bias", "conv2d", "conv2d", scale=10.0)
def _(rng):
    return (
        lambda x, w, b: F.conv2d(x, w, b, stride=2, padding=1),
        (_n(rng, 2, 3, 6, 6), _n(rng, 4, 3, 3, 3), _n(rng, 4)),
    )


@_case("conv2d/k1-s1-p0", "conv2d", "conv2d", scale=10.0)
def _(rng):
    return (
        lambda x, w: F.conv2d(x, w),
        (_n(rng, 1, 2, 4, 4), _n(rng, 3, 2, 1, 1)),
    )


@_case("conv2d/k2-s2-p0", "conv2d", "conv2d", scale=10.0)
def _(rng):
    return (
        lambda x, w: F.conv2d(x, w, stride=2),
        (_n(rng, 2, 2, 6, 6), _n(rng, 3, 2, 2, 2)),
    )


@_case("max_pool2d/k2", "max_pool2d", "max_pool2d")
def _(rng):
    return lambda a: F.max_pool2d(a, 2), (_distinct(rng, 2, 2, 4, 4),)


@_case("max_pool2d/k4", "max_pool2d", "max_pool2d")
def _(rng):
    return lambda a: F.max_pool2d(a, 4), (_distinct(rng, 1, 2, 4, 4),)


@_case("avg_pool2d/k2", "avg_pool2d", "avg_pool2d")
def _(rng):
    return lambda a: F.avg_pool2d(a, 2), (_n(rng, 2, 2, 4, 4),)


@_case("global_avg_pool2d", "global_avg_pool2d", "sum")
def _(rng):
    return lambda a: F.global_avg_pool2d(a), (_n(rng, 2, 3, 4, 4),)


@_case("upsample_nearest/s2", "upsample_nearest", "upsample_nearest")
def _(rng):
    return lambda a: F.upsample_nearest(a, 2), (_n(rng, 2, 2, 3, 3),)


@_case("upsample_nearest/s3", "upsample_nearest", "upsample_nearest")
def _(rng):
    return lambda a: F.upsample_nearest(a, 3), (_n(rng, 1, 2, 2, 2),)


@_case("softmax/last-axis", "softmax", "softmax")
def _(rng):
    return lambda a: F.softmax(a, axis=-1), (_n(rng, 2, 3, 5),)


@_case("softmax/axis1", "softmax", "softmax")
def _(rng):
    return lambda a: F.softmax(a, axis=1), (_n(rng, 2, 3, 5),)


@_case("log_softmax/last-axis", "log_softmax", "log_softmax")
def _(rng):
    return lambda a: F.log_softmax(a, axis=-1), (_n(rng, 2, 3, 5),)


@_case("log_softmax/axis0", "log_softmax", "log_softmax")
def _(rng):
    return lambda a: F.log_softmax(a, axis=0), (_n(rng, 4, 3),)


@_case("position_attention/d1-c1", "position_attention", "position_attention")
def _(rng):
    # d = 1: the rank-1 (broadcast outer product) energy path.
    return F.position_attention, (_n(rng, 2, 1, 7), _n(rng, 2, 1, 7), _n(rng, 2, 1, 7))


@_case("position_attention/d3-c2", "position_attention", "position_attention")
def _(rng):
    return F.position_attention, (_n(rng, 2, 3, 6), _n(rng, 2, 3, 6), _n(rng, 2, 2, 6))


@_case("position_attention/tiled", "position_attention", "position_attention")
def _(rng):
    # Several row blocks with a ragged tail (218 + 82 rows at 1 MiB), so
    # the vjp under check is the recompute-per-block backward.
    q, k, v = (_n(rng, 2, 1, 300) for _ in range(3))
    rows = F._attention_block_rows(q, 300)
    assert rows < 300 and 300 % rows, f"one block of {rows} rows covers L = 300"
    return F.position_attention, (q, k, v)


@_case("batch_norm/training", "batch_norm", "batch_norm", scale=100.0)
def _(rng):
    rm, rv = np.zeros(3), np.ones(3)
    return (
        lambda x, g, b: F.batch_norm(x, g, b, rm.copy(), rv.copy(), True),
        (_n(rng, 4, 3, 2, 2), _positive(_n(rng, 3)), _n(rng, 3)),
    )


@_case("batch_norm/eval", "batch_norm", "batch_norm", scale=100.0)
def _(rng):
    rm = _n(rng, 3) * 0.1
    rv = _positive(_n(rng, 3))
    return (
        lambda x, g, b: F.batch_norm(x, g, b, rm, rv, False),
        (_n(rng, 2, 3, 2, 2), _positive(_n(rng, 3)), _n(rng, 3)),
    )


@_case("layer_norm", "layer_norm", "layer_norm", scale=100.0)
def _(rng):
    return (
        lambda x, g, b: F.layer_norm(x, g, b),
        (_n(rng, 2, 4, 8), _positive(_n(rng, 8)), _n(rng, 8)),
    )


@_case("dropout/p0.3", "dropout", "dropout")
def _(rng):
    # A fresh, identically-seeded generator per call keeps the mask
    # constant across the finite-difference evaluations.
    return (
        lambda a: F.dropout(a, 0.3, True, np.random.default_rng(7)),
        (_n(rng, 4, 5),),
    )


# Public names that deliberately have no gradcheck case, with the reason
# the coverage test accepts.
UNCOVERED: dict[str, str] = {
    "im2col": "ndarray helper (not a Tensor op; exercised via conv2d cases)",
    "col2im": "ndarray helper (not a Tensor op; exercised via conv2d cases)",
    "Tensor.__radd__": "records __add__ (covered by add/radd-scalar)",
    "Tensor.__rmul__": "records __mul__ (covered by mul/rmul-scalar)",
    "Tensor.__rsub__": "delegates to __sub__ (covered by sub/rsub-scalar)",
    "Tensor.__rtruediv__": "delegates to __truediv__ (covered by div/rdiv-scalar)",
}


def cases_for(kinds) -> list[Case]:
    """Cases whose recorded op kind is in ``kinds``."""
    kinds = set(kinds)
    return [c for c in CASES if c.op_kind in kinds]


def op_kinds() -> tuple[str, ...]:
    return tuple(dict.fromkeys(c.op_kind for c in CASES))


def covered_targets() -> set[str]:
    return {c.target for c in CASES}


_names = [c.name for c in CASES]
if len(set(_names)) != len(_names):  # pragma: no cover - registry sanity
    raise RuntimeError("duplicate gradcheck case names")
