"""Central-difference derivative checks for every differentiable primitive.

One :class:`Case` is one concrete configuration of one primitive (op,
shapes, stride/padding/axis/keepdims, broadcast pattern) plus a builder
that returns the callable and its leaf arrays.  Four layers of
assurance:

* every case passes the central-difference check, including
  non-default stride/padding/axis/keepdims configurations and the
  broadcast configurations that exercise ``_unbroadcast``;
* the case table is *complete*: every public op in
  ``repro.nn.functional.__all__`` and every ``Tensor`` method that
  builds an autograd node is targeted by a case or waived in
  ``UNCOVERED`` with a reason;
* the check catches bugs: a planted wrong vjp fails, at error
  magnitudes far smaller than any plausible real defect;
* ``relu``, ``max`` and ``max_pool2d`` are probed at their kinks, where
  finite differences are meaningless.

Tolerance model (float64).  With step ``h_i = eps**(1/3) * max(1, |x_i|)``
the central difference has truncation error ``~ |f'''| h**2 / 6`` and
rounding error ``~ eps * |L| / h``; both are minimized to a *relative*
error of order ``eps**(2/3) ≈ 3.7e-11`` at that step.  The check allows
``1e4`` times that optimum (``scale`` widens it further for deep
accumulation chains like convolutions and normalizations) — still nine
orders of magnitude below the O(1) error of a genuinely wrong vjp.
"""

from __future__ import annotations

import ast
import inspect
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import repro.nn.functional as F
import repro.nn.tensor as tensor_mod
from repro.nn.tensor import Tensor, concatenate, no_grad, stack


@dataclass(frozen=True)
class Case:
    """One gradcheckable configuration of one primitive."""

    name: str  # unique, e.g. "conv2d/k3-s2-p1-bias"
    target: str  # public symbol covered ("conv2d", "Tensor.__add__", ...)
    build: Callable[[np.random.Generator], tuple[Callable, tuple[np.ndarray, ...]]]
    scale: float = 1.0  # tolerance multiplier (accumulation depth)


def _n(rng, *shape):
    return rng.standard_normal(shape)


def _away_from_zero(a, margin=0.25):
    """Shift values out of (-margin, margin): keeps FD clear of kinks."""
    return a + np.sign(a) * margin + (a == 0) * margin


def _positive(a, floor=0.5):
    return np.abs(a) + floor


CASES: list[Case] = []


def _case(name, target, *, scale=1.0):
    """Register the decorated builder as a :class:`Case`."""

    def decorator(build):
        CASES.append(Case(name, target, build, scale))
        return build

    return decorator


# -- arithmetic ----------------------------------------------------------------


@_case("add/same-shape", "Tensor.__add__")
def _(rng):
    return lambda a, b: a + b, (_n(rng, 3, 4), _n(rng, 3, 4))


@_case("add/radd-scalar", "Tensor.__radd__")
def _(rng):
    return lambda a: 2.5 + a, (_n(rng, 3, 4),)


@_case("add/broadcast-(3,1,4)x(2,4)", "Tensor.__add__")
def _(rng):
    return lambda a, b: a + b, (_n(rng, 3, 1, 4), _n(rng, 2, 4))


@_case("add/broadcast-size1-(1,1)x(3,4)", "Tensor.__add__")
def _(rng):
    return lambda a, b: a + b, (_n(rng, 1, 1), _n(rng, 3, 4))


@_case("sub/same-shape", "Tensor.__sub__")
def _(rng):
    return lambda a, b: a - b, (_n(rng, 2, 5), _n(rng, 2, 5))


@_case("sub/rsub-scalar", "Tensor.__rsub__")
def _(rng):
    return lambda a: 1.5 - a, (_n(rng, 4),)


@_case("sub/broadcast-(3,1)x(1,4)", "Tensor.__sub__")
def _(rng):
    return lambda a, b: a - b, (_n(rng, 3, 1), _n(rng, 1, 4))


@_case("neg", "Tensor.__neg__")
def _(rng):
    return lambda a: -a, (_n(rng, 3, 4),)


@_case("mul/same-shape", "Tensor.__mul__")
def _(rng):
    return lambda a, b: a * b, (_n(rng, 3, 4), _n(rng, 3, 4))


@_case("mul/rmul-scalar", "Tensor.__rmul__")
def _(rng):
    return lambda a: 3.0 * a, (_n(rng, 2, 3),)


@_case("mul/broadcast-(2,3,1)x(3,4)", "Tensor.__mul__")
def _(rng):
    return lambda a, b: a * b, (_n(rng, 2, 3, 1), _n(rng, 3, 4))


@_case("div/same-shape", "Tensor.__truediv__")
def _(rng):
    return lambda a, b: a / b, (_n(rng, 3, 4), _positive(_n(rng, 3, 4)))


@_case("div/rdiv-scalar", "Tensor.__rtruediv__")
def _(rng):
    return lambda a: 2.0 / a, (_positive(_n(rng, 3, 4)),)


@_case("div/broadcast-(3,1,4)x(4,)", "Tensor.__truediv__")
def _(rng):
    return lambda a, b: a / b, (_n(rng, 3, 1, 4), _positive(_n(rng, 4)))


@_case("pow/square", "Tensor.__pow__")
def _(rng):
    return lambda a: a**2, (_n(rng, 3, 4),)


@_case("pow/cube", "Tensor.__pow__")
def _(rng):
    return lambda a: a**3, (_n(rng, 2, 5),)


@_case("pow/half-positive-base", "Tensor.__pow__")
def _(rng):
    return lambda a: a**0.5, (_positive(_n(rng, 3, 4)),)


@_case("pow/fractional-positive-base", "Tensor.__pow__")
def _(rng):
    return lambda a: a**1.5, (_positive(_n(rng, 3, 4)),)


@_case("pow/negative-exponent", "Tensor.__pow__")
def _(rng):
    return lambda a: a**-1, (_positive(_n(rng, 3, 4)),)


@_case("pow/zero-exponent-with-zero-base", "Tensor.__pow__")
def _(rng):
    # d/dx x**0 == 0 everywhere, including x == 0 (regression: the
    # naive formula evaluates 0 * 0**-1 == nan there).
    a = _n(rng, 3, 4)
    a.flat[0] = 0.0
    return lambda t: t**0, (a,)


@_case("sqrt", "Tensor.sqrt")
def _(rng):
    return lambda a: a.sqrt(), (_positive(_n(rng, 3, 4)),)


@_case("matmul/2d", "Tensor.__matmul__")
def _(rng):
    return lambda a, b: a @ b, (_n(rng, 3, 4), _n(rng, 4, 5))


@_case("matmul/batched", "Tensor.__matmul__")
def _(rng):
    return lambda a, b: a @ b, (_n(rng, 2, 3, 4), _n(rng, 2, 4, 5))


@_case("matmul/broadcast-batch", "Tensor.__matmul__")
def _(rng):
    return lambda a, b: a @ b, (_n(rng, 2, 1, 3, 4), _n(rng, 5, 4, 6))


# -- reductions ----------------------------------------------------------------


@_case("sum/all", "Tensor.sum")
def _(rng):
    return lambda a: a.sum(), (_n(rng, 3, 4),)


@_case("sum/axis1-keepdims", "Tensor.sum")
def _(rng):
    return lambda a: a.sum(axis=1, keepdims=True), (_n(rng, 3, 4, 2),)


@_case("sum/axis-tuple", "Tensor.sum")
def _(rng):
    return lambda a: a.sum(axis=(0, 2)), (_n(rng, 3, 4, 2),)


@_case("mean/all", "Tensor.mean")
def _(rng):
    return lambda a: a.mean(), (_n(rng, 3, 4),)


@_case("mean/axis-keepdims", "Tensor.mean")
def _(rng):
    return lambda a: a.mean(axis=-1, keepdims=True), (_n(rng, 2, 3, 4),)


def _distinct(rng, *shape):
    """Values with pairwise gaps: keeps FD away from max ties."""
    a = rng.permutation(np.arange(float(np.prod(shape))))
    return (a.reshape(shape) * 0.37) - 0.5 * float(np.prod(shape)) * 0.37 * 0.5


@_case("max/all", "Tensor.max")
def _(rng):
    return lambda a: a.max(), (_distinct(rng, 3, 4),)


@_case("max/axis-keepdims", "Tensor.max")
def _(rng):
    return lambda a: a.max(axis=1, keepdims=True), (_distinct(rng, 3, 4),)


@_case("max/neg-axis", "Tensor.max")
def _(rng):
    return lambda a: a.max(axis=-1), (_distinct(rng, 2, 3, 4),)


# -- shape manipulation --------------------------------------------------------


@_case("reshape/merge", "Tensor.reshape")
def _(rng):
    return lambda a: a.reshape(4, 6), (_n(rng, 2, 3, 4),)


@_case("reshape/infer", "Tensor.reshape")
def _(rng):
    return lambda a: a.reshape(-1, 2), (_n(rng, 2, 3, 4),)


@_case("transpose/reverse", "Tensor.transpose")
def _(rng):
    return lambda a: a.transpose(), (_n(rng, 2, 3, 4),)


@_case("transpose/negative-axes", "Tensor.transpose")
def _(rng):
    return lambda a: a.transpose((0, -1, -2)), (_n(rng, 2, 3, 4),)


@_case("swapaxes", "Tensor.swapaxes")
def _(rng):
    return lambda a: a.swapaxes(0, 2), (_n(rng, 2, 3, 4),)


@_case("getitem/strided-slice", "Tensor.__getitem__")
def _(rng):
    return lambda a: a[::2, 1:], (_n(rng, 5, 4),)


@_case("getitem/int-index", "Tensor.__getitem__")
def _(rng):
    return lambda a: a[1], (_n(rng, 3, 4),)


@_case("getitem/fancy-repeated", "Tensor.__getitem__")
def _(rng):
    # Repeated fancy indices must scatter-ADD (np.add.at), not assign.
    idx = np.array([0, 1, 1, 2])
    return lambda a: a[idx], (_n(rng, 3, 4),)


@_case("concatenate/axis1", "concatenate")
def _(rng):
    return (
        lambda a, b, c: concatenate([a, b, c], axis=1),
        (_n(rng, 2, 2), _n(rng, 2, 3), _n(rng, 2, 1)),
    )


@_case("concatenate/neg-axis", "concatenate")
def _(rng):
    return (
        lambda a, b: concatenate([a, b], axis=-1),
        (_n(rng, 2, 3, 2), _n(rng, 2, 3, 4)),
    )


@_case("stack/axis0", "stack")
def _(rng):
    return (
        lambda a, b, c: stack([a, b, c], axis=0),
        (_n(rng, 2, 3), _n(rng, 2, 3), _n(rng, 2, 3)),
    )


@_case("stack/neg-axis", "stack")
def _(rng):
    return lambda a, b: stack([a, b], axis=-1), (_n(rng, 2, 3), _n(rng, 2, 3))


# -- elementwise nonlinearities ------------------------------------------------


@_case("exp", "Tensor.exp")
def _(rng):
    return lambda a: a.exp(), (_n(rng, 3, 4),)


@_case("log", "Tensor.log")
def _(rng):
    return lambda a: a.log(), (_positive(_n(rng, 3, 4)),)


@_case("tanh", "Tensor.tanh")
def _(rng):
    return lambda a: a.tanh(), (_n(rng, 3, 4),)


@_case("sigmoid", "Tensor.sigmoid")
def _(rng):
    return lambda a: a.sigmoid(), (_n(rng, 3, 4),)


@_case("relu/away-from-kink", "Tensor.relu")
def _(rng):
    return lambda a: a.relu(), (_away_from_zero(_n(rng, 3, 4)),)


@_case("gelu", "Tensor.gelu")
def _(rng):
    return lambda a: a.gelu(), (_n(rng, 3, 4),)


# -- nn.functional -------------------------------------------------------------


@_case("conv2d/k3-s1-p0", "conv2d", scale=10.0)
def _(rng):
    return (
        lambda x, w: F.conv2d(x, w),
        (_n(rng, 2, 3, 5, 5), _n(rng, 4, 3, 3, 3)),
    )


@_case("conv2d/k3-s1-p1-bias", "conv2d", scale=10.0)
def _(rng):
    return (
        lambda x, w, b: F.conv2d(x, w, b, padding=1),
        (_n(rng, 2, 3, 5, 4), _n(rng, 4, 3, 3, 3), _n(rng, 4)),
    )


@_case("conv2d/k5-s1-p2", "conv2d", scale=10.0)
def _(rng):
    return (
        lambda x, w: F.conv2d(x, w, padding=2),
        (_n(rng, 2, 2, 6, 5), _n(rng, 3, 2, 5, 5)),
    )


@_case("conv2d/k3-s2-p1-bias", "conv2d", scale=10.0)
def _(rng):
    return (
        lambda x, w, b: F.conv2d(x, w, b, stride=2, padding=1),
        (_n(rng, 2, 3, 6, 6), _n(rng, 4, 3, 3, 3), _n(rng, 4)),
    )


@_case("conv2d/k1-s1-p0", "conv2d", scale=10.0)
def _(rng):
    return (
        lambda x, w: F.conv2d(x, w),
        (_n(rng, 1, 2, 4, 4), _n(rng, 3, 2, 1, 1)),
    )


@_case("conv2d/k2-s2-p0", "conv2d", scale=10.0)
def _(rng):
    return (
        lambda x, w: F.conv2d(x, w, stride=2),
        (_n(rng, 2, 2, 6, 6), _n(rng, 3, 2, 2, 2)),
    )


@_case("linear/3d-bias", "linear")
def _(rng):
    return (
        lambda x, w, b: F.linear(x, w, b),
        (_n(rng, 2, 3, 4), _n(rng, 5, 4), _n(rng, 5)),
    )


@_case("linear/3d", "linear")
def _(rng):
    return lambda x, w: F.linear(x, w), (_n(rng, 3, 2, 4), _n(rng, 2, 4))


@_case("linear/2d-bias", "linear")
def _(rng):
    return (
        lambda x, w, b: F.linear(x, w, b),
        (_n(rng, 3, 4), _n(rng, 5, 4), _n(rng, 5)),
    )


@_case("max_pool2d/k2", "max_pool2d")
def _(rng):
    return lambda a: F.max_pool2d(a, 2), (_distinct(rng, 2, 2, 4, 4),)


@_case("max_pool2d/k4", "max_pool2d")
def _(rng):
    return lambda a: F.max_pool2d(a, 4), (_distinct(rng, 1, 2, 4, 4),)


@_case("avg_pool2d/k2", "avg_pool2d")
def _(rng):
    return lambda a: F.avg_pool2d(a, 2), (_n(rng, 2, 2, 4, 4),)


@_case("upsample_nearest/s2", "upsample_nearest")
def _(rng):
    return lambda a: F.upsample_nearest(a, 2), (_n(rng, 2, 2, 3, 3),)


@_case("upsample_nearest/s3", "upsample_nearest")
def _(rng):
    return lambda a: F.upsample_nearest(a, 3), (_n(rng, 1, 2, 2, 2),)


@_case("softmax/last-axis", "softmax")
def _(rng):
    return lambda a: F.softmax(a, axis=-1), (_n(rng, 2, 3, 5),)


@_case("softmax/axis1", "softmax")
def _(rng):
    return lambda a: F.softmax(a, axis=1), (_n(rng, 2, 3, 5),)


@_case("log_softmax/last-axis", "log_softmax")
def _(rng):
    return lambda a: F.log_softmax(a, axis=-1), (_n(rng, 2, 3, 5),)


@_case("log_softmax/axis0", "log_softmax")
def _(rng):
    return lambda a: F.log_softmax(a, axis=0), (_n(rng, 4, 3),)


@_case("position_attention/d1-c1", "position_attention")
def _(rng):
    # d = 1 on a small map: the broadcast outer-product energy path.
    return F.position_attention, (_n(rng, 2, 1, 7), _n(rng, 2, 1, 7), _n(rng, 2, 1, 7))


@_case("position_attention/d3-c2", "position_attention")
def _(rng):
    return F.position_attention, (_n(rng, 2, 3, 6), _n(rng, 2, 3, 6), _n(rng, 2, 2, 6))


@_case("position_attention/tiled", "position_attention")
def _(rng):
    # The rank-1 path in two row blocks with a ragged tail (327 + 73 rows
    # at 1 MiB), so the vjp under check is the recompute-per-block
    # backward over sign-sorted rows.
    q, k, v = (_n(rng, 1, 1, 400) for _ in range(3))
    blocks = F._rank1_blocks(1, 400, 8)
    assert len(blocks) == 2, f"{blocks} do not tile L = 400"
    return F.position_attention, (q, k, v)


@_case("batch_norm/training", "batch_norm", scale=100.0)
def _(rng):
    rm, rv = np.zeros(3), np.ones(3)
    return (
        lambda x, g, b: F.batch_norm(x, g, b, rm.copy(), rv.copy(), True),
        (_n(rng, 4, 3, 2, 2), _positive(_n(rng, 3)), _n(rng, 3)),
    )


@_case("batch_norm/eval", "batch_norm", scale=100.0)
def _(rng):
    rm = _n(rng, 3) * 0.1
    rv = _positive(_n(rng, 3))
    return (
        lambda x, g, b: F.batch_norm(x, g, b, rm, rv, False),
        (_n(rng, 2, 3, 2, 2), _positive(_n(rng, 3)), _n(rng, 3)),
    )


@_case("layer_norm", "layer_norm", scale=100.0)
def _(rng):
    return (
        lambda x, g, b: F.layer_norm(x, g, b),
        (_n(rng, 2, 4, 8), _positive(_n(rng, 8)), _n(rng, 8)),
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


# -- the check -----------------------------------------------------------------

_EPS = float(np.finfo(np.float64).eps)


def fd_tolerance(loss_scale: float, scale: float = 1.0) -> tuple[float, float]:
    """(rtol, atol) for comparing analytic vs central-difference grads."""
    base = _EPS ** (2.0 / 3.0)  # optimal central-difference relative error
    rtol = 1e4 * base * scale
    atol = 1e4 * base * max(1.0, abs(loss_scale)) * scale
    return rtol, atol


def assert_gradcheck(case: Case, seed: int = 0) -> None:
    """Compare the analytic vjp of ``case`` with central differences.

    One backward pass against a fixed random cotangent ``w`` gives the
    analytic gradient of ``L(x) = sum(f(x) * w)``; each input element is
    then bumped by ``±h`` and the worst element beyond the tolerance
    fails the assertion.
    """
    # crc32 keys the rng stably per case (hash() is salted per process).
    rng = np.random.default_rng([seed, zlib.crc32(case.name.encode())])
    fn, arrays = case.build(rng)
    arrays = tuple(np.asarray(a, dtype=np.float64) for a in arrays)

    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    w = rng.standard_normal(out.shape)
    out.backward(w)
    analytic = [
        np.zeros_like(a) if t.grad is None else np.asarray(t.grad, dtype=np.float64)
        for a, t in zip(arrays, leaves)
    ]

    def loss(values) -> float:
        with no_grad():
            result = fn(*[Tensor(v) for v in values])
        return float((result.data * w).sum())

    rtol, atol = fd_tolerance(loss(arrays), case.scale)
    worst = None
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
            if err > atol + rtol * max(abs(got), abs(numeric)):
                if worst is None or err > worst[0]:
                    worst = (err, k, idx, got, numeric)
    assert worst is None, (
        f"{case.name}: argument {worst[1]}{list(worst[2])}: analytic "
        f"{worst[3]!r} vs central-difference {worst[4]!r} (|err| "
        f"{worst[0]:.3e} > atol {atol:.3e} + rtol {rtol:.3e})"
    )


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_case_passes(case):
    assert_gradcheck(case, seed=0)


def test_case_names_unique():
    names = [c.name for c in CASES]
    assert len(set(names)) == len(names)


class TestRegistryCompleteness:
    """The sweep must cover the whole differentiable surface."""

    @staticmethod
    def _covered() -> set[str]:
        return {c.target for c in CASES} | set(UNCOVERED)

    def _methods_building_autograd_nodes(self, cls) -> set[str]:
        """Names of ``cls`` methods whose body calls ``Tensor._make``."""
        tree = ast.parse(Path(inspect.getsourcefile(cls)).read_text())
        class_node = next(
            n
            for n in tree.body
            if isinstance(n, ast.ClassDef) and n.name == cls.__name__
        )
        found = set()
        for item in class_node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            for node in ast.walk(item):
                if isinstance(node, ast.Attribute) and node.attr == "_make":
                    found.add(item.name)
                    break
        return found - {"_make"}

    def test_every_functional_op_covered(self):
        missing = [name for name in F.__all__ if name not in self._covered()]
        assert missing == [], (
            f"functional ops with no gradcheck case and no UNCOVERED waiver: "
            f"{missing}"
        )

    def test_every_tensor_method_covered(self):
        methods = self._methods_building_autograd_nodes(Tensor)
        missing = sorted(
            f"Tensor.{m}" for m in methods if f"Tensor.{m}" not in self._covered()
        )
        assert missing == [], (
            f"Tensor autograd methods with no gradcheck case and no "
            f"UNCOVERED waiver: {missing}"
        )
        # The AST scan found the real differentiable surface, not nothing.
        assert {"__add__", "__mul__", "__matmul__", "relu"} <= methods

    def test_module_level_ops_covered(self):
        targets = {c.target for c in CASES}
        for name in ("concatenate", "stack"):
            assert hasattr(tensor_mod, name)
            assert name in targets

    def test_every_uncovered_waiver_has_reason(self):
        for target, reason in UNCOVERED.items():
            assert isinstance(reason, str) and reason, target

    def test_non_default_configurations_present(self):
        """Strides, padding, axes and keepdims variants must be swept."""
        names = {c.name for c in CASES}
        for required in (
            "conv2d/k3-s2-p1-bias",
            "conv2d/k3-s1-p1-bias",
            "conv2d/k5-s1-p2",
            "linear/3d-bias",
            "linear/3d",
            "sum/axis1-keepdims",
            "max/axis-keepdims",
            "transpose/negative-axes",
            "upsample_nearest/s3",
        ):
            assert required in names, f"missing sweep configuration {required}"


class TestHarnessSensitivity:
    """A wrong vjp must fail the check — the tolerances cannot mask it."""

    @staticmethod
    def _planted(rel_err: float) -> Case:
        def build(rng):
            def fn(x):
                def backward(out):
                    x._accumulate(out.grad * 2.0 * (1.0 + rel_err))

                return Tensor._make(x.data * 2.0, (x,), backward)

            return fn, (rng.standard_normal((3, 4)),)

        return Case(f"planted/scale-bug-{rel_err}", "planted", build)

    def test_planted_gross_bug_fails(self):
        with pytest.raises(AssertionError, match="central-difference"):
            assert_gradcheck(self._planted(0.5), seed=0)

    def test_planted_subtle_bug_fails(self):
        # A 1e-5 relative error is ~27x the tolerance — still caught.
        with pytest.raises(AssertionError, match="central-difference"):
            assert_gradcheck(self._planted(1e-5), seed=0)

    def test_correct_vjp_passes(self):
        assert_gradcheck(self._planted(0.0), seed=0)


class TestKinkProbes:
    """At a kink the analytic gradient must be finite, lie in the
    subgradient hull, conserve gradient mass across ties and (the chosen
    convention) split it evenly among ties, in ``Tensor.max`` and
    ``max_pool2d`` alike."""

    def test_relu_at_zero(self):
        x = Tensor(np.array([-1.0, 0.0, 0.0, 2.0]), requires_grad=True)
        w = np.array([3.0, 5.0, -7.0, 2.0])
        x.relu().backward(w)
        g = x.grad
        assert np.all(np.isfinite(g)), g
        # Subgradient hull at 0 is [0, 1] * w; elsewhere exact.
        for i in (1, 2):
            lo, hi = sorted((0.0, w[i]))
            assert lo - 1e-12 <= g[i] <= hi + 1e-12, g
        assert g[0] == 0.0 and g[3] == w[3], g

    def test_max_ties(self):
        # Row 0 is a 3-way tie; row 1 has a 2-way tie among {2.0, 2.0}.
        x = Tensor(np.array([[1.0, 1.0, 1.0], [2.0, 0.0, 2.0]]), requires_grad=True)
        w = np.array([6.0, -3.0])
        x.max(axis=1).backward(w)
        g = x.grad
        assert np.all(np.isfinite(g)), g
        # Conservation: mass over each reduced slot equals the cotangent.
        np.testing.assert_allclose(g.sum(axis=1), w, atol=1e-12)
        # Mass stays on argmax entries only, split evenly among ties.
        assert g[1, 1] == 0.0
        np.testing.assert_allclose(g[0], w[0] / 3.0)
        np.testing.assert_allclose(g[1, [0, 2]], w[1] / 2.0)

    def test_max_pool2d_ties(self):
        # One all-equal 2x2 window: a 4-way tie.
        x = Tensor(np.full((1, 1, 2, 2), 3.0), requires_grad=True)
        F.max_pool2d(x, 2).backward(np.full((1, 1, 1, 1), 8.0))
        g = x.grad
        assert np.all(np.isfinite(g)), g
        assert np.isclose(g.sum(), 8.0, atol=1e-12), g
        # Consistent with Tensor.max: an even split among the 4 ties.
        np.testing.assert_allclose(g, 2.0)
