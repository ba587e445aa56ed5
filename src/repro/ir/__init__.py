"""Symbolic tensor IR and static analysis passes for :mod:`repro.nn`.

The second leg of the correctness tooling (after :mod:`repro.lint`'s AST
rules): run any model's *own* ``forward`` over data-free symbolic
tensors to obtain a typed SSA graph (:mod:`repro.ir.graph`).  A
forward that rejects its shapes raises :class:`ShapeError`;
``build_model`` traces every model this way to validate it.  The graph
is then analyzed statically —

* :mod:`repro.ir.cost` — FLOP/byte cost model with stage/layer rollups;
* :mod:`repro.ir.stability` — interval-domain numerical-stability
  checks (REPRO101–103).

Source-level determinism (unseeded RNG, unordered iteration) is not a
graph property; the AST rules REPRO009/010 of :mod:`repro.lint` check it.

Entry points: ``repro analyze <model|all> --grid N --json`` on the
command line, and :func:`analyze_model` / :func:`analyze_registry` in
code.
Findings share the diagnostic format, rule-code namespace and ``# noqa``
suppression of :mod:`repro.lint`.
"""

from .graph import Graph, Node
from .cost import cost_model
from .report import (
    SCHEMA,
    analyze_graph,
    analyze_model,
    analyze_registry,
    baseline_from_reports,
    check_baseline,
)
from .stability import check_stability
from .symbolic import ShapeError, SymbolicArray, TraceError
from .trace import TraceSession, trace, trace_model

__all__ = [
    "Graph",
    "Node",
    "ShapeError",
    "SymbolicArray",
    "TraceError",
    "TraceSession",
    "trace",
    "trace_model",
    "cost_model",
    "check_stability",
    "SCHEMA",
    "analyze_graph",
    "analyze_model",
    "analyze_registry",
    "baseline_from_reports",
    "check_baseline",
]
