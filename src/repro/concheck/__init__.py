"""Static concurrency-safety & cross-process determinism analyzer.

:mod:`repro.orchestrate` promises that a parallel run is bitwise
identical to the serial reference and that a SIGKILL at any instant
loses no committed state.  Both guarantees rest on conventions in the
*job code* — no process-global mutation in fork workers, no global RNG,
picklable payloads, atomic durable writes — that nothing enforced until
now.  ``repro.concheck`` proves them statically: it re-derives the
worker-reachable universe from scratch (scanning every dotted
``"module:attr"`` job reference and ``JobSpec`` site in the source, not
trusting the runtime's registry), builds a whole-program call graph,
and runs four pass families over it:

* **effect inference** (:mod:`.effects`) — an interprocedural fixpoint
  classifying every worker-reachable function as ``pure`` /
  ``deterministic`` / ``io`` / ``global-mutating``, reporting the
  escape set per violation (REPRO601-603);
* **RNG & ordering discipline** (:mod:`.rng`) — global/legacy RNG,
  non-``SeedSequence`` generators and unordered iteration anywhere in
  worker-reachable code: REPRO104/105 extended from intra-procedural
  to call-graph-deep (REPRO604-606);
* **fork/pickle safety** (:mod:`.forksafety`) — unpicklable job
  payloads, dotted refs that cannot resolve in a fresh worker,
  import-time side effects in worker modules and fork-inherited
  resources (REPRO607-610);
* **durability lint** (:mod:`.durability`) — durable-path writes that
  skip the temp-file + fsync + rename idiom the journal's
  crash-recovery proof depends on (REPRO611-612).

Every finding uses the shared diagnostic format, honours
``# noqa: REPROxxx`` and reports through the central
:mod:`repro.diagnostics` registry.  CLI: ``repro concheck``; baseline:
``benchmarks/concheck_baseline.json``; docs: ``docs/CONCURRENCY.md``.
"""

from repro.diagnostics import codes_for

from .callgraph import CallGraph, build_call_graph
from .durability import check_durability
from .effects import EFFECT_LATTICE, infer_effects
from .forksafety import check_fork_safety
from .index import FunctionInfo, ModuleInfo, PackageIndex, build_index
from .report import (
    SCHEMA,
    baseline_from_concheck,
    check_concheck_baseline,
    concheck,
)
from .rng import check_rng_discipline

CONCHECK_RULES = codes_for("concheck")

__all__ = [
    "SCHEMA",
    "CONCHECK_RULES",
    "EFFECT_LATTICE",
    "PackageIndex",
    "ModuleInfo",
    "FunctionInfo",
    "CallGraph",
    "build_index",
    "build_call_graph",
    "infer_effects",
    "check_rng_discipline",
    "check_fork_safety",
    "check_durability",
    "concheck",
    "baseline_from_concheck",
    "check_concheck_baseline",
]
