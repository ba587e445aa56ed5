"""FLOP / byte cost model with per-layer and per-stage rollups.

FLOP counts are attached to nodes at trace time by the symbolic rules
(2·m·k·n for matmul, output size for elementwise ops, input size for
reductions); this pass aggregates them into a machine-readable summary:

* ``by_op`` — totals per primitive (matmul, exp, ...).
* ``by_stage`` — totals per top-level submodule (``down1``, ``pam``,
  ``transformer``, ...), the granularity Fig. 5 of the paper reports.
* ``by_layer`` — totals per innermost module scope, heaviest first.
"""

from __future__ import annotations

from .graph import Graph

__all__ = ["cost_model"]


def _stage_of(scope: str) -> str:
    parts = scope.split(".")
    return parts[1] if len(parts) > 1 else "(root)"


def cost_model(graph: Graph, top_layers: int = 10) -> dict:
    by_op: dict[str, dict] = {}
    by_stage: dict[str, dict] = {}
    by_layer: dict[str, dict] = {}
    total_flops = 0
    activation_bytes = 0

    for node in graph:
        if node.kind != "op":
            continue
        total_flops += node.flops
        activation_bytes += node.bytes
        for table, key in (
            (by_op, node.op),
            (by_stage, _stage_of(node.scope)),
            (by_layer, node.scope or "(root)"),
        ):
            row = table.setdefault(key, {"flops": 0, "bytes": 0, "nodes": 0})
            row["flops"] += node.flops
            row["bytes"] += node.bytes
            row["nodes"] += 1

    out_pixels = 0
    for out in graph.outputs:
        shape = graph[out].shape
        if len(shape) >= 2:
            out_pixels += int(shape[-1]) * int(shape[-2])

    def _ranked(table: dict[str, dict], limit: int | None = None) -> list[dict]:
        rows = [{"name": k, **v} for k, v in table.items()]
        rows.sort(key=lambda r: -r["flops"])
        return rows[:limit] if limit else rows

    return {
        "total_flops": total_flops,
        "activation_bytes": activation_bytes,
        "param_bytes": graph.param_bytes(),
        "param_count": sum(n.size for n in graph if n.kind == "param"),
        "flops_per_output_pixel": (total_flops // out_pixels) if out_pixels else 0,
        "by_op": _ranked(by_op),
        "by_stage": _ranked(by_stage),
        "by_layer": _ranked(by_layer, top_layers),
    }
