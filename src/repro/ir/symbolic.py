"""Symbolic (shape/dtype/interval-only) arrays for tracing forwards.

A :class:`SymbolicArray` stands in for ``numpy.ndarray`` inside a
:class:`~repro.nn.tensor.Tensor` during tracing: it carries a shape, a
dtype and a conservative value interval, but **no data**.  Every
operation applied to one — ufuncs via ``__array_ufunc__``, functions
like ``np.pad``/``np.concatenate`` via
``__array_function__``, and ndarray methods (``reshape``, ``sum``,
``max``, slicing) implemented directly — appends a typed
:class:`~repro.ir.graph.Node` to the active trace and returns a new
symbolic array, so running a model's real ``forward`` code produces the
program graph instead of activations.

Three design points worth knowing:

* **Aliasing is modelled.**  Views (transpose, contiguous reshape,
  slicing, ``broadcast_to``) produce zero-byte alias nodes; reshaping a
  non-contiguous array materializes a copy, exactly as numpy does.  An
  elementwise ufunc whose ``out=`` is one of its own inputs (``x -=
  m``, ``np.exp(x, out=x)``) is a zero-byte node aliasing that operand,
  with the vrange and meta the out-of-place op would get.
  This is what keeps the cost model's byte counts equal to numpy's.
* **Value intervals** propagate through every op (interval arithmetic,
  conservatively widened to ``(-inf, inf)`` when unclear), which is what
  the numerical-stability passes consume.
* **Stabilization patterns** are recognized structurally: ``x - max(x,
  axis, keepdims=True)`` tags its result as max-shifted (so ``exp`` of
  it is bounded by 1), and summing those exps over the shifted axes is
  known to be ≥ 1 — the canonical softmax/log-sum-exp stabilization —
  so the stability pass flags only genuinely unguarded sites.

Attempting to *read* data (``float()``, ``bool()``, ``np.asarray``)
raises :class:`TraceError`: symbolic tracing cannot follow
data-dependent control flow, by construction.  Where numpy would reject
the shapes of an operation with a ``ValueError`` (reshape, matmul,
concatenate, stack, squeeze, in-place ``out=``), the symbolic
rule raises :class:`ShapeError`, so a trace fails wherever the real
forward would.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

__all__ = ["ShapeError", "SymbolicArray", "TraceError"]

INF = math.inf


class TraceError(RuntimeError):
    """An operation the symbolic tracer cannot represent."""


class ShapeError(ValueError):
    """Operand shapes that the real numpy operation would reject."""


# -- interval arithmetic -------------------------------------------------------
# All helpers are conservative: any indeterminate form (inf - inf,
# 0 * inf, ...) widens to the unbounded interval.

UNBOUNDED = (-INF, INF)


def _clean(lo: float, hi: float) -> tuple[float, float]:
    if math.isnan(lo):
        lo = -INF
    if math.isnan(hi):
        hi = INF
    return (float(lo), float(hi))


def _rng_add(a, b):
    return _clean(a[0] + b[0], a[1] + b[1])


def _rng_sub(a, b):
    return _clean(a[0] - b[1], a[1] - b[0])


def _rng_neg(a):
    return (-a[1], -a[0])


def _rng_mul(a, b):
    cands = []
    for x in a:
        for y in b:
            v = x * y
            if math.isnan(v):  # 0 * inf — the product can be anything
                return UNBOUNDED
            cands.append(v)
    return (min(cands), max(cands))


def _rng_div(a, b):
    if b[0] <= 0.0 <= b[1]:
        return UNBOUNDED
    return _rng_mul(a, (1.0 / b[1], 1.0 / b[0]))


def _rng_abs(a):
    hi = max(abs(a[0]), abs(a[1]))
    lo = 0.0 if a[0] <= 0.0 <= a[1] else min(abs(a[0]), abs(a[1]))
    return (lo, hi)


def _rng_exp(a):
    with np.errstate(over="ignore"):
        return (float(np.exp(a[0])), float(np.exp(a[1])))


def _rng_log(a):
    lo = -INF if a[0] <= 0 else math.log(a[0])
    hi = -INF if a[1] <= 0 else math.log(a[1])
    return (lo, hi)


def _rng_sqrt(a):
    return (math.sqrt(max(a[0], 0.0)), math.sqrt(max(a[1], 0.0)))


def _rng_tanh(a):
    return (float(np.tanh(a[0])), float(np.tanh(a[1])))


def _rng_pow(a, b):
    bases = list(a) + ([0.0] if a[0] < 0.0 < a[1] else [])
    with np.errstate(all="ignore"):
        cands = [float(np.power(x, e)) for x in bases for e in b]
    if any(math.isnan(c) for c in cands):
        return UNBOUNDED
    return (min(cands), max(cands))


def _rng_union(a, b):
    return (min(a[0], b[0]), max(a[1], b[1]))


def _rng_contract(a, b):
    """Range for matmul-style contractions: only sign survives."""
    if a[0] >= 0 and b[0] >= 0:
        return (0.0, INF)
    return UNBOUNDED


def _rng_scale_widen(a, m: float):
    """Scatter-style range: up to ``m`` summed contributions, or none."""
    lo, hi = _rng_mul(a, (0.0, float(m)))
    return (min(lo, 0.0), max(hi, 0.0))


# -- operand coercion ----------------------------------------------------------


def _operands(sess, values):
    """Split op operands into (input node ids, dtype args, vranges)."""
    ids: list[int] = []
    dtype_args: list[Any] = []
    vranges: list[tuple[float, float]] = []
    for v in values:
        if isinstance(v, SymbolicArray):
            ids.append(v.node_id)
            dtype_args.append(v.dtype)
            vranges.append(v.vrange)
        elif isinstance(v, (bool, int, float)):
            ids.append(sess.const_node(v).id)
            dtype_args.append(v)  # weak (value-based) promotion
            vranges.append((float(v), float(v)))
        else:
            arr = np.asarray(v)
            node = sess.const_node(arr)
            ids.append(node.id)
            dtype_args.append(arr.dtype)
            vranges.append(node.vrange)
    return ids, dtype_args, vranges


def _session_of(values) -> "Any":
    for v in values:
        if isinstance(v, SymbolicArray):
            return v.sess
    raise TraceError("no symbolic operand found")  # pragma: no cover


def _shape_of(v) -> tuple[int, ...]:
    if isinstance(v, SymbolicArray):
        return v.shape
    if isinstance(v, (bool, int, float)):
        return ()
    return np.asarray(v).shape


def _resolve_shape(shape, size: int) -> tuple[int, ...]:
    shape = tuple(int(d) for d in shape)
    if -1 in shape:
        known = int(np.prod([d for d in shape if d != -1]))
        if shape.count(-1) > 1 or known == 0 or size % known:
            raise ShapeError(f"cannot reshape size {size} into {shape}")
        shape = tuple(size // known if d == -1 else d for d in shape)
    total = int(np.prod(shape)) if shape else 1
    if total != size:
        raise ShapeError(f"cannot reshape size {size} into {shape}")
    return shape


def _norm_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    axes = axis if isinstance(axis, tuple) else (axis,)
    return tuple(sorted(a % ndim for a in axes))


class SymbolicArray:
    """An ndarray stand-in holding only shape, dtype and a value interval."""

    __slots__ = ("sess", "node_id", "shape", "dtype", "contiguous")

    def __init__(self, sess, node_id: int, shape, dtype, contiguous: bool = True):
        self.sess = sess
        self.node_id = node_id
        self.shape = tuple(int(d) for d in shape)
        self.dtype = np.dtype(dtype)
        self.contiguous = contiguous

    # -- introspection ---------------------------------------------------------

    @property
    def node(self):
        return self.sess.graph[self.node_id]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    @property
    def vrange(self) -> tuple[float, float]:
        return self.node.vrange

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymbolicArray(%{self.node_id}, shape={self.shape}, dtype={self.dtype})"

    # -- materialization guards ------------------------------------------------

    def _no_data(self, what: str):
        raise TraceError(
            f"cannot {what} a symbolic array: tracing is shape-only and "
            "cannot follow data-dependent control flow"
        )

    def __array__(self, dtype=None, copy=None):
        self._no_data("materialize")

    def __bool__(self):
        self._no_data("truth-test")

    def __float__(self):
        self._no_data("convert to float")

    def __int__(self):
        self._no_data("convert to int")

    def item(self):
        self._no_data("read a scalar from")

    # -- node construction -----------------------------------------------------

    def _emit(
        self,
        op: str,
        operands,
        shape,
        dtype,
        *,
        flops: int = 0,
        alias_of: int | None = None,
        contiguous: bool = True,
        attrs: tuple[tuple[str, Any], ...] = (),
        vrange: tuple[float, float] = UNBOUNDED,
        meta: dict | None = None,
    ) -> "SymbolicArray":
        sess = self.sess
        ids, _, _ = _operands(sess, operands)
        shape = tuple(int(d) for d in shape)
        dtype = np.dtype(dtype)
        nbytes = 0 if alias_of is not None else math.prod(shape) * dtype.itemsize
        scope_id, scope_depth = sess.scope_instance()
        full_meta = {
            "vrange": _clean(*vrange),
            "scope_id": scope_id,
            "scope_depth": scope_depth,
        }
        if meta:
            full_meta.update(meta)
        node = sess.graph.add(
            op,
            tuple(ids),
            shape,
            dtype,
            flops=flops,
            bytes=nbytes,
            alias_of=alias_of,
            scope=sess.current_scope(),
            src=sess.call_site(),
            attrs=attrs,
            meta=full_meta,
        )
        return SymbolicArray(sess, node.id, shape, dtype, contiguous)

    # -- ufunc protocol --------------------------------------------------------

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__":
            raise TraceError(
                f"ufunc method {ufunc.__name__}.{method} is not supported in tracing"
            )
        handler = _UFUNCS.get(ufunc)
        if handler is None:
            raise TraceError(
                f"ufunc {ufunc.__name__!r} has no symbolic rule; add one in "
                "repro.ir.symbolic"
            )
        out = kwargs.get("out")
        if out is None:
            return handler(_session_of(inputs), inputs)
        # In place: ``out=`` naming one of the call's own inputs writes
        # over that operand, so the result aliases its buffer.
        (into,) = out
        if not any(into is v for v in inputs) or handler is _matmul_handler:
            raise TraceError(
                "out= is supported in tracing only for an elementwise ufunc "
                "writing over one of its own inputs"
            )
        return handler(into.sess, inputs, into=into)

    # -- function protocol -----------------------------------------------------

    def __array_function__(self, func, types, args, kwargs):
        handler = _FUNCS.get(func)
        if handler is None:
            raise TraceError(
                f"numpy function {func.__name__!r} has no symbolic rule; add "
                "one in repro.ir.symbolic"
            )
        return handler(*args, **kwargs)

    # -- arithmetic dunders (delegate to ufuncs so rules live in one place) ----

    def __add__(self, other):
        return np.add(self, other)

    def __radd__(self, other):
        return np.add(other, self)

    def __sub__(self, other):
        return np.subtract(self, other)

    def __isub__(self, other):
        return np.subtract(self, other, out=(self,))

    def __rsub__(self, other):
        return np.subtract(other, self)

    def __mul__(self, other):
        return np.multiply(self, other)

    def __rmul__(self, other):
        return np.multiply(other, self)

    def __truediv__(self, other):
        return np.true_divide(self, other)

    def __rtruediv__(self, other):
        return np.true_divide(other, self)

    def __pow__(self, other):
        return np.power(self, other)

    def __neg__(self):
        return np.negative(self)

    def __matmul__(self, other):
        return np.matmul(self, other)

    def __rmatmul__(self, other):
        return np.matmul(other, self)

    def __gt__(self, other):
        return np.greater(self, other)

    def __ge__(self, other):
        return np.greater_equal(self, other)

    def __lt__(self, other):
        return np.less(self, other)

    def __le__(self, other):
        return np.less_equal(self, other)

    # -- shape manipulation ----------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        shape = _resolve_shape(shape, self.size)
        if self.contiguous:
            return self._emit(
                "reshape", (self,), shape, self.dtype,
                alias_of=self.sess.graph.buffer_of(self.node_id),
                attrs=(("shape", shape),), vrange=self.vrange,
            )
        # numpy must copy to reshape a non-contiguous array.
        return self._emit(
            "copy_reshape", (self,), shape, self.dtype,
            attrs=(("shape", shape),), vrange=self.vrange,
        )

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        axes = tuple(a % self.ndim for a in axes)
        shape = tuple(self.shape[a] for a in axes)
        return self._emit(
            "transpose", (self,), shape, self.dtype,
            alias_of=self.sess.graph.buffer_of(self.node_id), contiguous=False,
            attrs=(("axes", axes),), vrange=self.vrange,
        )

    def swapaxes(self, a: int, b: int):
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def astype(self, dtype, copy: bool = True):
        dtype = np.dtype(dtype)
        if dtype == self.dtype and not copy:
            return self
        return self._emit(
            "cast", (self,), self.shape, dtype, flops=self.size,
            attrs=(("dtype", dtype.name),), vrange=self.vrange,
            meta={"cast_from": self.dtype.name},
        )

    def copy(self):
        return self._emit("copy", (self,), self.shape, self.dtype, vrange=self.vrange)

    def __getitem__(self, index):
        shape = _slice_shape(self.shape, index)
        return self._emit(
            "slice", (self,), shape, self.dtype,
            alias_of=self.sess.graph.buffer_of(self.node_id), contiguous=False,
            attrs=(("index", repr(index)),), vrange=self.vrange,
        )

    # -- reductions ------------------------------------------------------------

    def _reduce(self, op: str, axis, keepdims: bool, vrange, meta=None):
        axes = _norm_axes(axis, self.ndim)
        if keepdims:
            shape = tuple(1 if i in axes else d for i, d in enumerate(self.shape))
        else:
            shape = tuple(d for i, d in enumerate(self.shape) if i not in axes)
        return self._emit(
            op, (self,), shape, self.dtype, flops=self.size,
            attrs=(("axes", axes), ("keepdims", keepdims)),
            vrange=vrange, meta=meta,
        )

    def sum(self, axis=None, keepdims: bool = False, dtype=None):
        axes = _norm_axes(axis, self.ndim)
        count = int(np.prod([self.shape[a] for a in axes])) if axes else 1
        lo, hi = _rng_mul(self.vrange, (float(count), float(count)))
        # Stabilized log-sum-exp: along max-shifted axes one exp is
        # exactly 1 and the rest are non-negative, so the sum is >= 1.
        unit_axes = self.node.meta.get("unit_max_axes")
        if unit_axes is not None and set(axes) <= set(unit_axes):
            lo = max(lo, 1.0)
        return self._reduce("sum", axis, keepdims, (lo, hi))

    def mean(self, axis=None, keepdims: bool = False, dtype=None):
        return self._reduce("mean", axis, keepdims, self.vrange)

    def var(self, axis=None, keepdims: bool = False, ddof: int = 0):
        return self._reduce("var", axis, keepdims, (0.0, INF))

    def max(self, axis=None, keepdims: bool = False):
        meta = None
        if axis is not None and keepdims:
            meta = {"max_of": (self.node_id, _norm_axes(axis, self.ndim))}
        return self._reduce("max", axis, keepdims, self.vrange, meta=meta)

    def min(self, axis=None, keepdims: bool = False):
        return self._reduce("min", axis, keepdims, self.vrange)

    # -- repro.nn structured-op hooks ------------------------------------------

    def __symbolic_im2col__(self, kernel: int, stride: int):
        n, c, h, w = self.shape
        out_h = (h - kernel) // stride + 1
        out_w = (w - kernel) // stride + 1
        cols = self._emit(
            "im2col", (self,), (n, c * kernel * kernel, out_h * out_w), self.dtype,
            attrs=(("kernel", kernel), ("stride", stride)), vrange=self.vrange,
        )
        return cols, out_h, out_w

    def __symbolic_col2im__(self, shape, kernel: int, stride: int):
        return self._emit(
            "col2im", (self,), shape, self.dtype, flops=self.size,
            attrs=(("kernel", kernel), ("stride", stride)),
            vrange=_rng_scale_widen(self.vrange, kernel * kernel),
        )


def _slice_shape(shape: tuple[int, ...], index) -> tuple[int, ...]:
    if not isinstance(index, tuple):
        index = (index,)
    if any(i is None or isinstance(i, (list, np.ndarray)) for i in index):
        raise TraceError("only basic (slice/int) indexing is supported in tracing")
    n_explicit = sum(1 for i in index if i is not Ellipsis)
    expanded: list[Any] = []
    for i in index:
        if i is Ellipsis:
            expanded.extend([slice(None)] * (len(shape) - n_explicit))
        else:
            expanded.append(i)
    expanded.extend([slice(None)] * (len(shape) - len(expanded)))
    out: list[int] = []
    for dim, idx in zip(shape, expanded):
        if isinstance(idx, int):
            if not -dim <= idx < dim:
                raise TraceError(f"index {idx} out of bounds for axis of size {dim}")
            continue  # integer indexing drops the axis
        out.append(len(range(*idx.indices(dim))))
    return tuple(out)


# -- ufunc rules ---------------------------------------------------------------


def _elementwise(op: str, rng_fn: Callable | None, *, boolean: bool = False):
    def handler(sess, inputs, into: SymbolicArray | None = None):
        _, dtype_args, vranges = _operands(sess, inputs)
        shape = np.broadcast_shapes(*(_shape_of(v) for v in inputs))
        dtype = np.dtype(bool) if boolean else np.result_type(*dtype_args)
        alias_of, contiguous = None, True
        if into is not None:
            if shape != into.shape:
                raise ShapeError(
                    f"in-place {op} result {shape} does not fit its output "
                    f"{into.shape}"
                )
            dtype, contiguous = into.dtype, into.contiguous
            alias_of = sess.graph.buffer_of(into.node_id)
        vrange = (0.0, 1.0) if boolean else rng_fn(*vranges)
        sym = next(v for v in inputs if isinstance(v, SymbolicArray))
        meta = None
        if op == "subtract":
            meta = _max_shift_meta(inputs)
            if meta:
                vrange = (vrange[0], min(vrange[1], 0.0))
        elif op == "exp":
            meta = _unit_max_meta(inputs)
        return sym._emit(
            op, inputs, shape, dtype,
            flops=math.prod(shape),
            alias_of=alias_of, contiguous=contiguous, vrange=vrange, meta=meta,
        )

    return handler


def _max_shift_meta(inputs):
    """Tag ``x - max(x, axis, keepdims=True)`` as a stabilization shift."""
    a, b = inputs
    if not (isinstance(a, SymbolicArray) and isinstance(b, SymbolicArray)):
        return None
    max_of = b.node.meta.get("max_of")
    if max_of is not None and max_of[0] == a.node_id:
        return {"max_shifted": max_of[1]}
    return None


def _unit_max_meta(inputs):
    """``exp`` of a max-shifted value attains exactly 1 along those axes."""
    (x,) = inputs
    if isinstance(x, SymbolicArray):
        shifted = x.node.meta.get("max_shifted")
        if shifted is not None and x.vrange[1] <= 0.0:
            return {"unit_max_axes": shifted}
    return None


def _matmul_handler(sess, inputs):
    a, b = inputs
    sa, sb = _shape_of(a), _shape_of(b)
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError(f"matmul needs 2-d+ operands, got {sa} @ {sb}")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul inner-dimension mismatch: {sa} @ {sb}")
    batch = np.broadcast_shapes(sa[:-2], sb[:-2])
    shape = batch + (sa[-2], sb[-1])
    _, dtype_args, vranges = _operands(sess, inputs)
    flops = 2 * int(np.prod(batch + (sa[-2], sa[-1], sb[-1]), dtype=object))
    sym = next(v for v in inputs if isinstance(v, SymbolicArray))
    return sym._emit(
        "matmul", inputs, shape, np.result_type(*dtype_args),
        flops=flops, vrange=_rng_contract(*vranges),
    )


_UFUNCS: dict[Any, Callable] = {
    np.add: _elementwise("add", _rng_add),
    np.subtract: _elementwise("subtract", _rng_sub),
    np.multiply: _elementwise("multiply", _rng_mul),
    np.true_divide: _elementwise("divide", _rng_div),
    np.negative: _elementwise("negative", _rng_neg),
    np.exp: _elementwise("exp", _rng_exp),
    np.log: _elementwise("log", _rng_log),
    np.sqrt: _elementwise("sqrt", _rng_sqrt),
    np.tanh: _elementwise("tanh", _rng_tanh),
    np.absolute: _elementwise("abs", _rng_abs),
    np.power: _elementwise("power", _rng_pow),
    np.maximum: _elementwise("maximum", lambda a, b: (max(a[0], b[0]), max(a[1], b[1]))),
    np.minimum: _elementwise("minimum", lambda a, b: (min(a[0], b[0]), min(a[1], b[1]))),
    np.greater: _elementwise("greater", None, boolean=True),
    np.greater_equal: _elementwise("greater_equal", None, boolean=True),
    np.less: _elementwise("less", None, boolean=True),
    np.less_equal: _elementwise("less_equal", None, boolean=True),
    np.matmul: _matmul_handler,
}


# -- numpy function rules ------------------------------------------------------


def _f_pad(array, pad_width, mode="constant", **kwargs):
    if mode != "constant":
        raise TraceError(f"np.pad mode {mode!r} is not supported in tracing")
    ndim = array.ndim
    if isinstance(pad_width, int):
        pads = ((pad_width, pad_width),) * ndim
    else:
        pads = tuple(
            (int(p[0]), int(p[1])) if not isinstance(p, int) else (p, p)
            for p in pad_width
        )
        if len(pads) == 1:
            pads = pads * ndim
    shape = tuple(d + a + b for d, (a, b) in zip(array.shape, pads))
    lo, hi = array.vrange
    return array._emit(
        "pad", (array,), shape, array.dtype,
        attrs=(("pads", pads),), vrange=(min(lo, 0.0), max(hi, 0.0)),
    )


def _f_concatenate(arrays, axis=0, **kwargs):
    sess = _session_of(arrays)
    first = next(a for a in arrays if isinstance(a, SymbolicArray))
    shapes = [_shape_of(a) for a in arrays]
    ndim = len(shapes[0])
    if ndim == 0 or any(len(s) != ndim for s in shapes):
        raise ShapeError(
            f"cannot concatenate arrays of ranks {[len(s) for s in shapes]}"
        )
    axis = axis % ndim
    for s in shapes[1:]:
        if s[:axis] + s[axis + 1:] != shapes[0][:axis] + shapes[0][axis + 1:]:
            raise ShapeError(
                f"cannot concatenate {shapes} along axis {axis}: the other "
                "dimensions differ"
            )
    shape = list(shapes[0])
    shape[axis] = sum(s[axis] for s in shapes)
    ids, dtype_args, vranges = _operands(sess, arrays)
    vrange = vranges[0]
    for r in vranges[1:]:
        vrange = _rng_union(vrange, r)
    return first._emit(
        "concatenate", tuple(arrays), tuple(shape), np.result_type(*dtype_args),
        attrs=(("axis", axis),), vrange=vrange,
    )


def _f_stack(arrays, axis=0, **kwargs):
    sess = _session_of(arrays)
    first = next(a for a in arrays if isinstance(a, SymbolicArray))
    shapes = {_shape_of(a) for a in arrays}
    if len(shapes) != 1:
        raise ShapeError(f"cannot stack arrays of different shapes {sorted(shapes)}")
    axis = axis % (first.ndim + 1)
    shape = first.shape[:axis] + (len(list(arrays)),) + first.shape[axis:]
    ids, dtype_args, vranges = _operands(sess, arrays)
    vrange = vranges[0]
    for r in vranges[1:]:
        vrange = _rng_union(vrange, r)
    return first._emit(
        "stack", tuple(arrays), shape, np.result_type(*dtype_args),
        attrs=(("axis", axis),), vrange=vrange,
    )


def _f_repeat(a, repeats, axis=None):
    if axis is None or not isinstance(repeats, int):
        raise TraceError("np.repeat needs an integer count and explicit axis")
    axis = axis % a.ndim
    shape = tuple(d * repeats if i == axis else d for i, d in enumerate(a.shape))
    return a._emit(
        "repeat", (a,), shape, a.dtype,
        attrs=(("repeats", repeats), ("axis", axis)), vrange=a.vrange,
    )


def _f_broadcast_to(array, shape, **kwargs):
    return array._emit(
        "broadcast", (array,), tuple(shape), array.dtype,
        alias_of=array.sess.graph.buffer_of(array.node_id), contiguous=False,
        attrs=(("shape", tuple(shape)),), vrange=array.vrange,
    )


def _f_swapaxes(a, axis1, axis2):
    return a.swapaxes(axis1, axis2)


def _f_transpose(a, axes=None):
    return a.transpose(axes) if axes is not None else a.transpose()


def _f_reshape(a, shape, **kwargs):
    return a.reshape(shape)


def _f_squeeze(a, axis=None):
    if axis is None:
        shape = tuple(d for d in a.shape if d != 1)
    else:
        axes = _norm_axes(axis, a.ndim)
        for ax in axes:
            if a.shape[ax] != 1:
                raise ShapeError(f"cannot squeeze axis {ax} of size {a.shape[ax]}")
        shape = tuple(d for i, d in enumerate(a.shape) if i not in axes)
    return a._emit(
        "squeeze", (a,), shape, a.dtype,
        alias_of=a.sess.graph.buffer_of(a.node_id), contiguous=a.contiguous,
        vrange=a.vrange,
    )


def _f_expand_dims(a, axis):
    axes = _norm_axes(axis, a.ndim + (1 if isinstance(axis, int) else len(axis)))
    shape = list(a.shape)
    for ax in axes:
        shape.insert(ax, 1)
    return a._emit(
        "expand_dims", (a,), tuple(shape), a.dtype,
        alias_of=a.sess.graph.buffer_of(a.node_id), contiguous=a.contiguous,
        vrange=a.vrange,
    )


def _f_where(condition, x=None, y=None):
    if x is None or y is None:
        raise TraceError("np.where without branches is not supported in tracing")
    sess = _session_of((condition, x, y))
    shape = np.broadcast_shapes(
        _shape_of(condition), _shape_of(x), _shape_of(y)
    )
    ids, dtype_args, vranges = _operands(sess, (condition, x, y))
    sym = next(v for v in (condition, x, y) if isinstance(v, SymbolicArray))
    return sym._emit(
        "where", (condition, x, y), shape, np.result_type(*dtype_args[1:]),
        flops=int(np.prod(shape)) if shape else 1,
        vrange=_rng_union(vranges[1], vranges[2]),
    )


def _f_sum(a, axis=None, keepdims=False, **kwargs):
    return a.sum(axis=axis, keepdims=keepdims)


def _f_mean(a, axis=None, keepdims=False, **kwargs):
    return a.mean(axis=axis, keepdims=keepdims)


def _f_var(a, axis=None, keepdims=False, **kwargs):
    return a.var(axis=axis, keepdims=keepdims)


def _f_amax(a, axis=None, keepdims=False, **kwargs):
    return a.max(axis=axis, keepdims=keepdims)


def _f_amin(a, axis=None, keepdims=False, **kwargs):
    return a.min(axis=axis, keepdims=keepdims)


_FUNCS: dict[Any, Callable] = {
    np.pad: _f_pad,
    np.concatenate: _f_concatenate,
    np.stack: _f_stack,
    np.repeat: _f_repeat,
    np.broadcast_to: _f_broadcast_to,
    np.swapaxes: _f_swapaxes,
    np.transpose: _f_transpose,
    np.reshape: _f_reshape,
    np.squeeze: _f_squeeze,
    np.expand_dims: _f_expand_dims,
    np.where: _f_where,
    np.sum: _f_sum,
    np.mean: _f_mean,
    np.var: _f_var,
    np.amax: _f_amax,
    np.max: _f_amax,
    np.amin: _f_amin,
    np.min: _f_amin,
}
