"""Typed SSA-style tensor IR.

A :class:`Graph` is the result of symbolically tracing a
:class:`repro.nn.Module` forward pass (see :mod:`repro.ir.trace`): a
flat, topologically-ordered list of :class:`Node` records, one per
tensor-producing operation, with static shapes, dtypes, FLOP counts and
byte sizes — but no payload data.  Node ids are SSA values: every node
is defined exactly once, before any of its uses, so analysis passes can
do a single forward or backward sweep.

Aliasing is explicit: view-producing ops (reshape of a contiguous
array, transpose, slicing, ``broadcast_to``) carry ``alias_of`` pointing
at the node that owns the underlying buffer and report ``bytes == 0``,
so byte counts never charge a view for its owner's buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

__all__ = ["Node", "Graph"]

# Node kinds: "input" (caller-provided activation), "param" (trainable
# leaf), "buffer" (registered non-trainable state), "const" (any other
# concrete array touched by the forward), "op" (computed value).
KINDS = ("input", "param", "buffer", "const", "op")


@dataclass
class Node:
    """One SSA value: an operation and its statically-known result type."""

    id: int
    op: str
    inputs: tuple[int, ...]
    shape: tuple[int, ...]
    dtype: np.dtype
    flops: int = 0
    bytes: int = 0
    alias_of: int | None = None
    kind: str = "op"
    scope: str = ""
    src: str = ""
    name: str = ""
    # Structural attributes (axis, subscripts, pad widths, ...), unlike
    # the free-form analysis annotations in ``meta`` (value ranges,
    # pattern tags).
    attrs: tuple[tuple[str, Any], ...] = ()
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def vrange(self) -> tuple[float, float]:
        """Statically-inferred value interval ``(lo, hi)``."""
        return self.meta.get("vrange", (-np.inf, np.inf))

    def __str__(self) -> str:
        shape = "x".join(str(d) for d in self.shape) or "scalar"
        alias = f" (view of %{self.alias_of})" if self.alias_of is not None else ""
        return f"%{self.id} = {self.op}({', '.join(f'%{i}' for i in self.inputs)}) : {shape} {self.dtype}{alias}"


class Graph:
    """A traced program: nodes in SSA/topological order plus endpoints."""

    def __init__(self, meta: dict[str, Any] | None = None) -> None:
        self.nodes: list[Node] = []
        self.inputs: list[int] = []
        self.outputs: list[int] = []
        self.meta: dict[str, Any] = meta or {}

    # -- construction ---------------------------------------------------------

    def add(
        self,
        op: str,
        inputs: tuple[int, ...],
        shape: tuple[int, ...],
        dtype,
        *,
        flops: int = 0,
        bytes: int = 0,
        alias_of: int | None = None,
        kind: str = "op",
        scope: str = "",
        src: str = "",
        name: str = "",
        attrs: tuple[tuple[str, Any], ...] = (),
        meta: dict[str, Any] | None = None,
    ) -> Node:
        if kind not in KINDS:
            raise ValueError(f"unknown node kind {kind!r}")
        for i in inputs:
            if not 0 <= i < len(self.nodes):
                raise ValueError(
                    f"node input %{i} not yet defined (SSA order violated)"
                )
        node = Node(
            id=len(self.nodes),
            op=op,
            inputs=tuple(inputs),
            shape=tuple(int(d) for d in shape),
            dtype=np.dtype(dtype),
            flops=int(flops),
            bytes=int(bytes),
            alias_of=alias_of,
            kind=kind,
            scope=scope,
            src=src,
            name=name,
            attrs=attrs,
            meta=meta if meta is not None else {},
        )
        self.nodes.append(node)
        if kind == "input":
            self.inputs.append(node.id)
        return node

    # -- traversal ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def __getitem__(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def buffer_of(self, node_id: int) -> int:
        """Resolve a (possibly aliased) node to its buffer-owning node."""
        node = self.nodes[node_id]
        while node.alias_of is not None:
            node = self.nodes[node.alias_of]
        return node.id

    # -- summaries ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.nodes:
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts

    def total_flops(self) -> int:
        return sum(n.flops for n in self.nodes)

    def param_bytes(self) -> int:
        return sum(n.bytes for n in self.nodes if n.kind == "param")

    def pretty(self, limit: int | None = None) -> str:
        """Human-readable listing, optionally truncated to ``limit`` rows."""
        rows = [str(n) for n in self.nodes[: limit or len(self.nodes)]]
        if limit is not None and len(self.nodes) > limit:
            rows.append(f"... ({len(self.nodes) - limit} more nodes)")
        rows.append(f"outputs: {', '.join(f'%{i}' for i in self.outputs)}")
        return "\n".join(rows)
