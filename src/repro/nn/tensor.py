"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of :mod:`repro.nn`, the pure-numpy
deep-learning substrate that replaces PyTorch in this reproduction (see
DESIGN.md, substitution table).  A :class:`Tensor` wraps an
``numpy.ndarray`` and records the operations applied to it so that
:meth:`Tensor.backward` can propagate gradients to every tensor created
with ``requires_grad=True``.

The graph is a classic dynamic tape: each operation returns a new tensor
holding references to its parents and a closure that, given the output
gradient already accumulated in ``out.grad``, adds the corresponding
contributions to each parent's ``grad``.  Gradient accumulation is
additive, so tensors used several times receive the sum of all path
contributions, as required by the chain rule.

Only the primitives needed by the paper's models live here; convolution,
pooling and other structured image ops live in
:mod:`repro.nn.functional`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
]

_GRAD_ENABLED = True
_DEFAULT_DTYPE = np.float64

# Abstract array types (see repro.ir.symbolic) that Tensor must carry
# through untouched instead of coercing with np.asarray.  Registered by
# the IR tracer so that a symbolic forward pass can flow through the
# exact same Tensor/Module code paths as a real one.
_ABSTRACT_ARRAY_TYPES: tuple[type, ...] = ()


def _register_abstract_array_type(cls: type) -> None:
    """Let ``Tensor`` wrap ``cls`` instances without numpy coercion."""
    global _ABSTRACT_ARRAY_TYPES
    if cls not in _ABSTRACT_ARRAY_TYPES:
        _ABSTRACT_ARRAY_TYPES = _ABSTRACT_ARRAY_TYPES + (cls,)


def set_default_dtype(dtype) -> None:
    """Set the dtype new tensors are coerced to (float32 or float64).

    float64 (the default) is what the numerical gradient checks assume;
    float32 roughly halves training time and memory and is what the
    benchmark harness uses.
    """
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _DEFAULT_DTYPE = dtype.type


def get_default_dtype():
    """The dtype new tensors are coerced to."""
    return _DEFAULT_DTYPE


class no_grad:
    """Context manager that disables graph construction.

    Inside a ``with no_grad():`` block every operation returns plain
    result tensors with ``requires_grad=False`` and records no parents,
    which keeps inference cheap and makes optimizer updates safe.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting replicates values along new or size-1 axes in the
    forward pass; the adjoint of replication is summation, so the
    gradient of a broadcast operand is the output gradient summed over
    every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` unless already a
        floating numpy array.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` when
        :meth:`backward` runs on a descendant.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        if _ABSTRACT_ARRAY_TYPES and isinstance(data, _ABSTRACT_ARRAY_TYPES):
            # Symbolic tracing: keep the abstract array as the payload
            # (an explicit cast keeps dtype semantics observable to the
            # IR's mixed-precision pass).
            arr = data if data.dtype == np.dtype(_DEFAULT_DTYPE) else data.astype(_DEFAULT_DTYPE)
        else:
            arr = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[], None] | None = None
        # None once a backward has released this node (see backward()).
        self._parents: tuple[Tensor, ...] | None = ()

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[["Tensor"], None] | None,
    ) -> "Tensor":
        """Build an op result, wiring the graph only when grad is enabled."""
        needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs)
        if needs and backward is not None:
            out._parents = tuple(parents)
            out._backward = lambda: backward(out)
        return out

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a view of the same data cut off from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    # -- gradient accumulation -------------------------------------------------

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add the adjoint ``grad`` into ``self.grad``.

        The first adjoint is copied into a buffer of ``self.data``'s
        dtype and layout, since vjps hand over views of another tensor's
        grad (``reshape``, ``pad2d``'s crop, ``out.grad`` itself), which
        later accumulations must not write.  A vjp passes ``fresh=True``
        only for an array it allocated itself and hands to this one
        tensor: that array becomes ``self.grad`` without a copy when it
        is a C-contiguous ndarray of ``self.data``'s dtype and shape, and
        is copied and cast otherwise.  Later adjoints are added in place.
        """
        if not self.requires_grad:
            return
        if self.grad is not None:
            self.grad += grad
        elif (
            fresh
            and type(grad) is np.ndarray
            and grad.dtype == self.data.dtype
            and grad.shape == self.data.shape
            and grad.flags.c_contiguous
        ):
            self.grad = grad
        else:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, grad)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ``1`` and therefore requires a scalar tensor.

        The graph is released as it is walked: once a node's vjp has
        run, its closure and parents are dropped and, unless it is a
        leaf (a tensor no op produced, such as a
        :class:`~repro.nn.module.Parameter`), its ``grad`` is reset to
        ``None``.  Each activation is therefore freed as soon as the
        last vjp that reads it has run, and only leaves keep their
        gradients.  A second backward through a released node, or
        through a new graph built on one, raises ``RuntimeError``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape "
                f"{self.data.shape}"
            )

        order = self._topological_order()
        self._accumulate(grad)
        while order:
            node = order.pop()
            if node._backward is None:
                continue  # a leaf: it keeps its grad
            if node.grad is not None:
                node._backward()
            # Release the node: its closure was the last owner of the
            # activations it read, and ``_parents = None`` marks it so
            # that a later backward reaching it raises.
            node._backward = None
            node._parents = None
            node.grad = None

    def _topological_order(self) -> list["Tensor"]:
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._parents is None:
                raise RuntimeError(
                    "backward() reached a tensor whose graph an earlier "
                    "backward() released; recompute the forward pass"
                )
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-out.grad, other.shape), fresh=True)

        return Tensor._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) - self

    def __neg__(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(-out.grad, fresh=True)

        return Tensor._make(-self.data, (self,), backward)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape), fresh=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape), fresh=True)

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad / other.data, self.shape), fresh=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-out.grad * self.data / (other.data**2), other.shape),
                    fresh=True,
                )

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(out: Tensor) -> None:
            if exponent == 0:
                # d/dx x**0 = 0 everywhere; the generic formula below
                # evaluates 0 * x**-1 which is 0*inf = nan at x = 0.
                self._accumulate(np.zeros_like(self.data), fresh=True)
                return
            self._accumulate(out.grad * exponent * self.data ** (exponent - 1), fresh=True)

        return Tensor._make(self.data**exponent, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            a, b, g = self.data, other.data, out.grad
            # Swap the last two axes for the adjoints and unbroadcast over
            # any leading batch dimensions (none when both are 2-D).
            if self.requires_grad:
                grad = g @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(grad, self.shape), fresh=True)
            if other.requires_grad:
                grad = np.swapaxes(a, -1, -2) @ g
                other._accumulate(_unbroadcast(grad, other.shape), fresh=True)

        return Tensor._make(self.data @ other.data, (self, other), backward)

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(out: Tensor) -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.shape).copy(), fresh=True)

        return Tensor._make(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum reduction; gradient flows to the (first) argmax entries."""
        out_data = self.data.max(axis=axis, keepdims=True)

        def backward(out: Tensor) -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            mask = self.data == out_data
            # Split gradient evenly among ties to keep the op well-defined.
            # The tie count is cast to the gradient dtype: dividing a
            # float32 gradient by an int64 count would silently promote
            # the adjoint to float64.
            counts = mask.sum(axis=axis, keepdims=True).astype(grad.dtype)
            self._accumulate(mask * grad / counts, fresh=True)

        result = out_data if keepdims else np.squeeze(out_data, axis=axis)
        if axis is None and not keepdims:
            result = np.asarray(self.data.max())
        return Tensor._make(result, (self,), backward)

    # -- shape manipulation ----------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad.reshape(self.shape))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        # Normalize negative axes: argsort of a mixed-sign permutation is
        # NOT its inverse, which silently corrupted gradients for square
        # dims and crashed for rectangular ones.
        axes = tuple(a % self.ndim for a in axes)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad.transpose(np.argsort(axes)))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        def backward(out: Tensor) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, out.grad)
            self._accumulate(grad, fresh=True)

        return Tensor._make(self.data[index], (self,), backward)

    # -- elementwise nonlinearities -----------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * out_data, fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(out.grad / self.data, fresh=True)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * (1.0 - out_data**2), fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # exp(-|x|) is bounded in (0, 1], so neither branch can overflow;
        # the naive 1/(1+exp(-x)) form overflows for x << 0 (REPRO101).
        z = np.exp(-np.abs(self.data))
        out_data = np.where(self.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * out_data * (1.0 - out_data), fresh=True)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        """``max(x, 0)`` in one pass: 0 for ``-inf`` and NaN for NaN."""

        def backward(out: Tensor) -> None:
            # No stored mask: ``out > 0`` is ``x > 0`` for every x, as
            # out is a zero or NaN wherever x is not positive.
            self._accumulate(out.grad * (out.data > 0), fresh=True)

        return Tensor._make(np.maximum(self.data, 0), (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        # math.sqrt yields a *weak* python float: under NEP 50 it adopts
        # the stream's dtype.  np.sqrt here would produce a strong
        # np.float64 scalar that silently widens every float32
        # activation (and its backward) to float64.
        c = math.sqrt(2.0 / math.pi)
        x = self.data
        # x * x * x, not x**3: float32 ``power`` is ~80x slower.
        inner = c * (x + 0.044715 * (x * x * x))
        t = np.tanh(inner)
        out_data = 0.5 * x * (1.0 + t)

        def backward(out: Tensor) -> None:
            dt = (1.0 - t**2) * c * (1.0 + 3 * 0.044715 * x**2)
            self._accumulate(out.grad * (0.5 * (1.0 + t) + 0.5 * x * dt), fresh=True)

        return Tensor._make(out_data, (self,), backward)


def as_tensor(value) -> Tensor:
    """Coerce scalars/arrays to :class:`Tensor` (tensors pass through)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(out: Tensor) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * out.grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(out.grad[tuple(index)])

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]

    def backward(out: Tensor) -> None:
        for i, tensor in enumerate(tensors):
            tensor._accumulate(np.take(out.grad, i, axis=axis), fresh=True)

    data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tensors, backward)
