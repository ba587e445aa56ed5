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
  (memory planner, cost model) should describe.
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
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.nn.module import Module, _set_call_hook
from repro.nn.tensor import (
    Tensor,
    _get_tape_hook,
    _register_abstract_array_type,
    _set_tape_hook,
    get_default_dtype,
    no_grad,
)

from .graph import Graph
from .symbolic import SymbolicArray, TraceError

__all__ = ["TapeEntry", "TraceSession", "trace", "trace_model", "trace_tape"]

_register_abstract_array_type(SymbolicArray)

UNBOUNDED = (-math.inf, math.inf)

# Frames from these directories are tracer/numpy machinery, not user
# code; call-site attribution skips past them.
_IR_DIR = os.path.dirname(os.path.abspath(__file__))
_SKIP_MARKERS = (_IR_DIR, os.sep + "numpy" + os.sep)


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
            if not any(marker in filename for marker in _SKIP_MARKERS):
                return f"{filename}:{frame.f_lineno}"
            frame = frame.f_back
        return ""

    def _hook(self, event: str, module: Module) -> None:
        if event == "enter":
            self._serial += 1
            name = self._names.get(id(module), type(module).__name__)
            self._scope.append((name, self._serial))
        else:
            self._scope.pop()


@dataclass(frozen=True)
class TapeEntry:
    """One recorded autograd op: the raw material of the adjoint graph.

    ``out``/``parents`` are node ids into the primal :class:`Graph`;
    ``captured`` lists every graph buffer the backward closure holds in
    its cells (the activations the tape *retains* until that closure
    runs — exactly what forward+backward memory planning needs).
    ``src`` is the ``path:line`` of the ``def backward`` that will
    produce this entry's adjoints, so findings anchor to the vjp's own
    source (and honour ``# noqa`` there).
    """

    index: int
    out: int
    op: str
    src: str
    parents: tuple[int, ...]
    parent_requires_grad: tuple[bool, ...]
    captured: tuple[int, ...]


def _op_of(backward) -> str:
    """Vjp attribution: ``Tensor.__add__.<locals>.backward`` -> ``__add__``."""
    qual = backward.__qualname__.split(".<locals>")[0]
    return qual.split(".")[-1]


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
            out = module(*args)
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


def trace_tape(
    module: Module,
    *input_shapes,
    dtype=None,
    input_vrange: tuple[float, float] = UNBOUNDED,
    name: str = "",
    input_requires_grad: bool = False,
) -> tuple[Graph, list[TapeEntry]]:
    """Trace a *grad-enabled* forward, capturing the backward tape.

    Unlike :func:`trace` this runs with gradients on, so every op that
    wires the autograd graph also emits a :class:`TapeEntry` (in
    execution = topological order).  The module still runs in ``eval``
    mode — the training-mode BatchNorm path mutates running statistics
    in place, which a symbolic value cannot represent — and the forward
    graph is identical to the one :func:`trace` produces, so forward
    analyses and baselines stay comparable.

    Returns the primal graph and the tape; feed both to
    :func:`repro.adjoint.build_adjoint_graph` /
    :func:`repro.adjoint.plan_training_memory`.
    """
    if not input_shapes:
        raise ValueError("trace_tape() needs at least one input shape")
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
    entries: list[TapeEntry] = []

    def resolve(payload) -> int | None:
        if isinstance(payload, Tensor):
            payload = payload.data
        if isinstance(payload, SymbolicArray):
            return payload.node_id
        if isinstance(payload, np.ndarray):
            # Concrete operands (params, buffers, coerced scalars) were
            # registered eagerly; _register_array dedupes by buffer.
            return sess._register_array(payload, kind="const").id
        return None

    prev_hook = _get_tape_hook()

    def tape_hook(event, out, parents, backward) -> None:
        if prev_hook is not None:
            prev_hook(event, out, parents, backward)
        if event != "record":
            return
        code = backward.__code__
        captured = []
        for cell in backward.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:  # pragma: no cover - empty cell
                continue
            if isinstance(value, (Tensor, SymbolicArray, np.ndarray)):
                nid = resolve(value)
                if nid is not None:
                    captured.append(nid)
        entries.append(
            TapeEntry(
                index=len(entries),
                out=resolve(out.data),
                op=_op_of(backward),
                src=f"{code.co_filename}:{code.co_firstlineno}",
                parents=tuple(resolve(p) for p in parents),
                parent_requires_grad=tuple(p.requires_grad for p in parents),
                captured=tuple(dict.fromkeys(captured)),
            )
        )

    was_training = [(m, m.training) for m in module.modules()]
    module.eval()
    _set_call_hook(sess._hook)
    _set_tape_hook(tape_hook)
    try:
        args = []
        for i, shape in enumerate(input_shapes):
            node = sess.graph.add(
                "input", (), tuple(shape), dtype,
                bytes=int(np.prod(shape, dtype=object)) * dtype.itemsize,
                kind="input", name=f"input{i}",
                meta={"vrange": input_vrange},
            )
            args.append(
                Tensor(
                    SymbolicArray(sess, node.id, shape, dtype),
                    requires_grad=input_requires_grad,
                )
            )
        out = module(*args)
    finally:
        _set_tape_hook(prev_hook)
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
    sess.graph.meta["tape_entries"] = len(entries)
    return sess.graph, entries


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
    maps produced by :mod:`repro.data.features`.
    """
    from repro.models.registry import build_model

    model = build_model(
        model_name, preset=preset, grid=grid, seed=seed, in_channels=in_channels
    )
    graph = trace(
        model,
        (batch, in_channels, grid, grid),
        input_vrange=input_vrange,
        name=model_name,
    )
    graph.meta.update({"preset": preset, "grid": grid, "batch": batch})
    return graph
