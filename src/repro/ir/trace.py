"""Symbolic tracing: run a real ``Module.forward`` into a :class:`Graph`.

The tracer does not reimplement any layer.  It wraps
:class:`~repro.ir.symbolic.SymbolicArray` payloads in ordinary
:class:`~repro.nn.tensor.Tensor` objects and calls the module's own
``forward``, so the traced graph is — by construction — the exact
sequence of numpy operations the model executes at runtime, with real
shape arithmetic but no data.

Tracing conventions:

* The model is forced into ``eval()`` mode for the duration of the
  trace (and restored after).  The training-mode BatchNorm path updates
  running statistics in place, which has no meaning for a symbolic
  value; eval mode is also what the deployment-oriented analyses
  (cost model, stability pass) should describe.
* Gradients are disabled (``no_grad``), so no tape is recorded.
* Parameters and buffers are registered eagerly as ``param``/``buffer``
  nodes.  Any other concrete array the forward touches becomes a
  ``const`` node, deduplicated by underlying buffer.  Parameter value
  ranges are unbounded (they change during training); buffer and const
  ranges use the concrete values seen at trace time.
* Every emitted node records the innermost enclosing module (``scope``,
  a dotted path such as ``MFATransformerNet.dec2.block.conv1``) and the
  source line that executed the op (``src``), which is what lets
  analysis findings share ``# noqa`` suppression with :mod:`repro.lint`.
* A forward that fails on its shapes (any ``ValueError``: a layer's own
  check, or a numpy rule in :mod:`repro.ir.symbolic`) raises
  :class:`~repro.ir.symbolic.ShapeError` prefixed with the scope of the
  innermost module that was running, e.g. ``UNet.dec3.block.0.conv: ...``.
"""

from __future__ import annotations

import math
import os
import sys
from typing import Any

import numpy as np

from repro.nn.module import Module, _set_call_hook
from repro.nn.tensor import (
    Tensor,
    _register_abstract_array_type,
    get_default_dtype,
    no_grad,
)

from .graph import Graph
from .symbolic import ShapeError, SymbolicArray, TraceError

__all__ = ["TraceSession", "trace", "trace_model"]

_register_abstract_array_type(SymbolicArray)

UNBOUNDED = (-math.inf, math.inf)

# Frames from these directories are tracer/numpy machinery, not user
# code; call-site attribution skips past them.
_IR_DIR = os.path.dirname(os.path.abspath(__file__))
_SKIP_MARKERS = (_IR_DIR, os.sep + "numpy" + os.sep)
_SKIP_FILES: dict[str, bool] = {}  # filename -> matches a marker


class TraceSession:
    """Mutable state for one trace: the graph plus attribution context."""

    def __init__(self) -> None:
        self.graph = Graph()
        # Stack of (dotted name, unique call serial): the serial makes
        # each module *invocation* distinct, so lifetime analysis does
        # not merge repeated calls to the same module.
        self._scope: list[tuple[str, int]] = []
        self._serial = 0
        self._names: dict[int, str] = {}
        # id(buffer) -> (node, array).  Holding the array reference
        # pins its id() so the cache can never alias a freed temporary.
        self._consts: dict[int, tuple[Any, np.ndarray]] = {}
        self._scalars: dict[tuple[str, float], Any] = {}
        # (scope, exception) of the innermost module that an exception
        # unwound through first; ``trace`` names it in a ShapeError.
        self.failure: tuple[str, BaseException] | None = None

    # -- module registration ---------------------------------------------------

    def register_module(self, module: Module, name: str = "") -> None:
        """Pre-register parameters/buffers and build the scope-name map."""
        root = name or type(module).__name__
        self._names[id(module)] = root
        for child_name, child in module._modules.items():
            self.register_module(child, f"{root}.{child_name}")
        if name:  # children are handled by the recursive calls above
            return
        for pname, param in module.named_parameters(prefix=f"{root}."):
            self._register_array(param.data, kind="param", name=pname)
        for bname, buf in module.named_buffers(prefix=f"{root}."):
            self._register_array(buf, kind="buffer", name=bname)

    def _register_array(self, array: np.ndarray, *, kind: str, name: str = ""):
        root = array
        while root.base is not None:
            root = root.base
        cached = self._consts.get(id(root))
        if cached is not None:
            return cached[0]
        if kind == "param":
            vrange = UNBOUNDED  # parameters move during training
        elif root.size == 0:
            vrange = (0.0, 0.0)
        else:
            vrange = (float(root.min()), float(root.max()))
        node = self.graph.add(
            kind,
            (),
            root.shape,
            root.dtype,
            bytes=root.nbytes,
            kind=kind,
            name=name,
            scope=self.current_scope(),
            src=self.call_site() if kind == "const" else "",
            meta={"vrange": vrange},
        )
        self._consts[id(root)] = (node, root)
        return node

    # -- symbolic-session protocol (used by SymbolicArray) ---------------------

    def const_node(self, value):
        """Node for a concrete operand: scalar, const array, param or buffer."""
        if isinstance(value, (bool, int, float)):  # includes numpy scalars
            key = (type(value).__name__, float(value))
            node = self._scalars.get(key)
            if node is None:
                arr = np.asarray(value)
                v = float(value)
                node = self.graph.add(
                    "const", (), (), arr.dtype, bytes=arr.nbytes, kind="const",
                    name=repr(value),
                    meta={
                        "vrange": (v, v),
                        # Exact python scalars promote "weakly" (NEP 50):
                        # they never widen an array dtype.  numpy scalars do.
                        "weak": type(value) in (bool, int, float),
                    },
                )
                self._scalars[key] = node
            return node
        return self._register_array(np.asarray(value), kind="const")

    def current_scope(self) -> str:
        return self._scope[-1][0] if self._scope else ""

    def scope_instance(self) -> tuple[int, int]:
        """(unique id of the innermost module call, nesting depth)."""
        if not self._scope:
            return (0, 0)
        return (self._scope[-1][1], len(self._scope))

    def call_site(self) -> str:
        """``path:line`` of the innermost non-tracer, non-numpy frame."""
        frame = sys._getframe(1)
        while frame is not None:
            filename = frame.f_code.co_filename
            skip = _SKIP_FILES.get(filename)
            if skip is None:
                skip = _SKIP_FILES[filename] = any(m in filename for m in _SKIP_MARKERS)
            if not skip:
                return f"{filename}:{frame.f_lineno}"
            frame = frame.f_back
        return ""

    def _hook(self, event: str, module: Module) -> None:
        if event == "enter":
            self._serial += 1
            name = self._names.get(id(module), type(module).__name__)
            self._scope.append((name, self._serial))
        else:
            exc = sys.exc_info()[1]
            if exc is not None and (self.failure is None or self.failure[1] is not exc):
                self.failure = (self.current_scope(), exc)
            self._scope.pop()


def _flatten_outputs(out) -> list[Tensor]:
    if isinstance(out, Tensor):
        return [out]
    if isinstance(out, (tuple, list)):
        flat: list[Tensor] = []
        for item in out:
            flat.extend(_flatten_outputs(item))
        return flat
    raise TraceError(f"unsupported forward output type {type(out).__name__}")


def trace(
    module: Module,
    *input_shapes,
    dtype=None,
    input_vrange: tuple[float, float] = UNBOUNDED,
    name: str = "",
) -> Graph:
    """Trace ``module.forward`` over symbolic inputs of the given shapes.

    Parameters
    ----------
    module:
        Any :class:`repro.nn.Module`.
    input_shapes:
        One shape tuple per positional forward argument.
    dtype:
        Input dtype; defaults to the substrate default dtype.
    input_vrange:
        Assumed value interval for the inputs.  The registry models
        consume normalized feature maps, so analyses pass a finite
        interval to get meaningful stability verdicts; the default is
        conservative (unbounded).

    Raises :class:`~repro.ir.symbolic.ShapeError` when the forward
    rejects the input shapes, naming the innermost failing module.
    """
    if not input_shapes:
        raise ValueError("trace() needs at least one input shape")
    dtype = np.dtype(dtype if dtype is not None else get_default_dtype())
    sess = TraceSession()
    sess.graph.meta.update(
        {
            "model": name or type(module).__name__,
            "input_shapes": [tuple(int(d) for d in s) for s in input_shapes],
            "dtype": dtype.name,
        }
    )
    sess.register_module(module)

    was_training = [(m, m.training) for m in module.modules()]
    module.eval()
    _set_call_hook(sess._hook)
    try:
        with no_grad():
            args = []
            for i, shape in enumerate(input_shapes):
                node = sess.graph.add(
                    "input", (), tuple(shape), dtype,
                    bytes=int(np.prod(shape, dtype=object)) * dtype.itemsize,
                    kind="input", name=f"input{i}",
                    meta={"vrange": input_vrange},
                )
                args.append(Tensor(SymbolicArray(sess, node.id, shape, dtype)))
            try:
                out = module(*args)
            except ValueError as exc:
                failed = sess.failure
                where = failed[0] if failed and failed[1] is exc else sess._names[id(module)]
                raise ShapeError(f"{where}: {exc}") from exc
    finally:
        _set_call_hook(None)
        for mod, mode in was_training:
            mod.training = mode

    for tensor in _flatten_outputs(out):
        payload = tensor.data
        if not isinstance(payload, SymbolicArray):
            raise TraceError(
                "forward returned a concrete array; symbolic inputs never "
                "reached this output"
            )
        sess.graph.outputs.append(payload.node_id)
    return sess.graph


def trace_model(
    model_name: str,
    *,
    preset: str = "fast",
    grid: int = 64,
    batch: int = 1,
    in_channels: int = 6,
    seed: int = 0,
    input_vrange: tuple[float, float] = (0.0, 1.0),
) -> Graph:
    """Build a registry model and trace one forward pass.

    The default input interval ``(0, 1)`` matches the normalized feature
    maps produced by :mod:`repro.features`.  At batch 1 with that
    interval this is the graph ``build_model`` already traced to
    validate the model, so it is reused rather than traced again.
    """
    from repro.models.registry import _build_and_trace

    model, graph = _build_and_trace(model_name, preset, grid, seed, in_channels)
    if batch != 1 or tuple(input_vrange) != (0.0, 1.0):
        graph = trace(
            model,
            (batch, in_channels, grid, grid),
            input_vrange=input_vrange,
            name=model_name,
        )
    graph.meta.update({"preset": preset, "grid": grid, "batch": batch})
    return graph
