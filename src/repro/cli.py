"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's main workflows:

* ``stats``  — print the benchmark-suite statistics (Table I left columns).
* ``place``  — run the Fig. 6 flow on one design and report the outcome.
* ``route``  — route the (freshly placed) design and print Fig. 1 levels.
* ``score``  — place + route + contest scores (Eqs. 1-3) in one shot.
* ``train``  — train a congestion model and save a checkpoint.
* ``table2`` — run the four teams on selected designs (mini Table II).

The analyzer sections below are declared once, in ``SECTIONS``; each is
a subcommand and a section of ``check``, the unified gate with one
combined JSON report (``repro.check/v1``) whose ``--update-baselines``
atomically refreshes every ``benchmarks/*_baseline.json`` instead:

* ``lint``   — static autograd lint + ShapeTracer model validation.
* ``analyze`` — symbolic-IR static analysis: memory plan, FLOP cost,
  stability + determinism audit (see repro.ir); ``--backward`` adds the
  adjoint-graph/gradient-flow/training-memory section (repro.adjoint).
* ``gradcheck`` — gradient audit: vjp contract capture, randomized
  central-difference derivative checks, gradient-flow analysis
  (see repro.adjoint).

Every analysis command reports through one exit-code contract (the
table lives in ``docs/API.md``): 0 = clean, 1 = blocking findings,
2 = usage error, 3 = baseline drift only, 4 = internal error.  Blocking
findings take precedence over drift when both occur.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "main",
    "build_parser",
    "EXIT_OK",
    "EXIT_BLOCKING",
    "EXIT_USAGE",
    "EXIT_DRIFT",
    "EXIT_INTERNAL",
]

# The shared exit-code contract for the analysis commands (every
# section in SECTIONS, and check).  argparse owns 2 (usage).
EXIT_OK = 0
EXIT_BLOCKING = 1
EXIT_USAGE = 2
EXIT_DRIFT = 3
EXIT_INTERNAL = 4

_MODELS = ("unet", "pgnn", "pros2", "ours")
_PRESETS = ("tiny", "fast", "paper")


def _checked(cast, ok, what: str):
    """argparse ``type=``: a ``cast`` value that satisfies ``ok``, else a
    usage error (exit 2) instead of a crash deep inside the analysis."""

    def parse(text: str):
        value = cast(text)  # ValueError -> "invalid <cast> value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    parse.__name__ = cast.__name__
    return parse


_positive_int = _checked(int, lambda v: v > 0, "positive")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "positive")
_non_negative_int = _checked(int, lambda v: v >= 0, "non-negative")


class _Distinct(argparse.Action):
    """``nargs="+"`` store that rejects a repeated value as a usage
    error: a repeated design would otherwise run every job twice."""

    def __call__(self, parser, namespace, values, option_string=None):
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            parser.error(f"{option_string}: {', '.join(repeated)} given more than once")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MFA+Transformer congestion prediction reproduction (DATE 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, multi_design: bool = False):
        from .netlist import MLCAD2023_SPECS

        if multi_design:
            p.add_argument(
                "--designs", nargs="+", default=["Design_116"],
                choices=sorted(MLCAD2023_SPECS), action=_Distinct,
            )
        else:
            p.add_argument(
                "--design", default="Design_116",
                choices=sorted(MLCAD2023_SPECS),
            )
        p.add_argument(
            "--scale", type=_positive_float, default=64.0,
            help="downscale factor (64 means 1/64 of full size)",
        )

    add_common(sub.add_parser("stats", help="benchmark statistics"), multi_design=True)

    place = sub.add_parser("place", help="run the Fig. 6 placement flow")
    add_common(place)
    place.add_argument("--iters", type=_positive_int, default=500)

    route = sub.add_parser("route", help="place then route, print Fig. 1 map")
    add_common(route)

    score = sub.add_parser("score", help="place + route + contest scores")
    add_common(score)

    train = sub.add_parser("train", help="train a congestion model")
    add_common(train, multi_design=True)
    train.add_argument("--model", default="ours", choices=_MODELS)
    train.add_argument("--epochs", type=_positive_int, default=20)
    train.add_argument("--placements", type=_positive_int, default=4)
    train.add_argument("--grid", type=_positive_int, default=64)
    train.add_argument("--out", default="congestion_model.npz")
    train.add_argument(
        "--checkpoint-dir", default=None,
        help="write atomic last/best checkpoint bundles here "
        "(enables crash-safe training)",
    )
    train.add_argument(
        "--checkpoint-every", type=_positive_int, default=1,
        help="epochs between checkpoint bundles (default 1)",
    )
    train.add_argument(
        "--resume", action="store_true",
        help="resume from the last bundle in --checkpoint-dir "
        "(refuses a mismatched config fingerprint)",
    )

    table2 = sub.add_parser("table2", help="mini Table II (4 teams)")
    add_common(table2, multi_design=True)
    table2.add_argument(
        "--parallel", type=_non_negative_int, default=None, metavar="N",
        help="fan (team, design) evaluations across N supervised worker "
        "processes (repro.orchestrate); 0 = supervised serial",
    )
    table2.add_argument(
        "--seed", type=int, default=None,
        help="root seed for deterministic per-job RNG streams "
        "(parallel runs reproduce serial bitwise)",
    )
    table2.add_argument(
        "--journal", default=None, metavar="PATH",
        help="durable JSONL job journal (enables --resume after a crash)",
    )
    table2.add_argument(
        "--resume", action="store_true",
        help="skip journal-verified completed jobs and finish the rest",
    )
    table2.add_argument(
        "--artifact", default="results/table2_run.json", metavar="PATH",
        help="structured JSON run record: scores, error manifest with "
        "traceback tails, REPRO5xx incidents (default %(default)s)",
    )

    for section in SECTIONS:
        section.add_arguments(sub.add_parser(section.name, help=section.help))

    check = sub.add_parser(
        "check",
        help="unified gate: " + " + ".join(s.name for s in SECTIONS),
    )
    check.add_argument("--preset", default="fast", choices=_PRESETS)
    check.add_argument("--grid", type=_positive_int, default=64)
    check.add_argument("--json", action="store_true",
                       help="print one combined repro.check/v1 report")
    check.add_argument(
        "--fail-on", default="blocking", choices=("advisory", "blocking"),
        help="failure threshold: 'blocking' (default, current behavior) "
        "or 'advisory' to also fail when non-blocking findings appear",
    )
    check.add_argument(
        "--update-baselines", action="store_true",
        help="refresh every benchmarks/*_baseline.json atomically with "
        "the CI-pinned configurations (all land, or none do), then exit",
    )

    return parser


def _cmd_stats(args) -> int:
    from .netlist import format_stats_table, mlcad2023_suite

    designs = mlcad2023_suite(tuple(args.designs), scale=1.0 / args.scale)
    print(format_stats_table(designs))
    return 0


def _cmd_place(args) -> int:
    from .netlist import MLCAD2023_SPECS, generate_design
    from .placement import GPConfig, PlacerConfig, place_design

    design = generate_design(MLCAD2023_SPECS[args.design], scale=1.0 / args.scale)
    outcome = place_design(
        design, config=PlacerConfig(gp=GPConfig(bins=32, max_iters=args.iters))
    )
    print(f"{design.name}: hpwl={outcome.hpwl:,.0f} legal={outcome.legal} "
          f"t_macro={outcome.t_macro_minutes:.2f}min")
    print(f"overflow: { {k: round(v, 3) for k, v in outcome.final_overflow.items()} }")
    return 0 if outcome.legal else 1


def _cmd_route(args) -> int:
    from .netlist import MLCAD2023_SPECS, generate_design
    from .placement import place_design
    from .routing import congestion_report, route_design

    design = generate_design(MLCAD2023_SPECS[args.design], scale=1.0 / args.scale)
    place_design(design)
    report = congestion_report(route_design(design))
    print(report.ascii_map())
    hist = np.bincount(report.level_map.ravel(), minlength=8)
    print(f"levels: {hist.tolist()}")
    return 0


def _cmd_score(args) -> int:
    from .contest import ContestScore, initial_routing_score
    from .netlist import MLCAD2023_SPECS, generate_design
    from .placement import place_design
    from .routing import DetailedRoutingModel, congestion_report, route_design

    design = generate_design(MLCAD2023_SPECS[args.design], scale=1.0 / args.scale)
    outcome = place_design(design)
    routing = route_design(design)
    report = congestion_report(routing)
    detailed = DetailedRoutingModel().evaluate(routing, report)
    score = ContestScore(
        design=design.name, team="cli",
        s_ir=initial_routing_score(report), s_dr=detailed.iterations,
        t_macro_minutes=outcome.t_macro_minutes, t_pr_hours=detailed.hours,
    )
    print(f"{design.name}: S_IR={score.s_ir} S_DR={score.s_dr} "
          f"S_R={score.s_r:.0f} T_P&R={score.t_pr_hours:.2f}h "
          f"S_score={score.s_score:.2f}")
    return 0


def _cmd_train(args) -> int:
    from .models import build_model
    from .netlist import MLCAD2023_SPECS
    from .nn import save_module
    from .train import CongestionDataset, DatasetConfig, TrainConfig, Trainer

    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    config = DatasetConfig(
        grid=args.grid,
        placements_per_design=args.placements,
        design_scale=1.0 / args.scale,
        seed=2023,
    )
    specs = [MLCAD2023_SPECS[name] for name in args.designs]
    dataset = CongestionDataset.build(specs, config)
    model = build_model(args.model, "fast", grid=args.grid)
    trainer = Trainer(
        TrainConfig(epochs=args.epochs, batch_size=8, lr=2e-3,
                    max_class_weight=4.0,
                    log_every=max(1, args.epochs // 10),
                    checkpoint_dir=args.checkpoint_dir,
                    checkpoint_every=args.checkpoint_every,
                    resume=args.resume)
    )
    result = trainer.train(model, dataset)
    metrics = Trainer.evaluate(model, dataset.eval)
    if result.resumed_from_epoch:
        print(f"resumed from epoch {result.resumed_from_epoch} "
              f"({args.checkpoint_dir})")
    if result.recoveries:
        print(f"recovered from {len(result.recoveries)} divergence rollback(s)")
    print(f"trained {args.model} ({model.num_parameters():,} params) "
          f"{result.epochs} epochs in {result.seconds:.0f}s")
    print(f"eval: ACC={metrics['ACC']:.3f} R2={metrics['R2']:.3f} "
          f"NRMS={metrics['NRMS']:.3f}")
    save_module(model, args.out)
    print(f"checkpoint: {args.out}")
    return 0


def _cmd_table2(args) -> int:
    from .contest import contest_teams, format_table2, run_table2, write_table2_artifact

    orchestrated = (
        args.parallel is not None or args.journal is not None or args.resume
    )
    if args.resume and args.journal is None:
        print("table2: --resume requires --journal PATH", file=sys.stderr)
        return EXIT_USAGE
    if orchestrated:
        result = run_table2(
            design_names=tuple(args.designs), scale=1.0 / args.scale,
            verbose=True, parallel=args.parallel, seed=args.seed,
            journal_path=args.journal, resume=args.resume,
        )
    else:
        result = run_table2(
            contest_teams(), design_names=tuple(args.designs),
            scale=1.0 / args.scale, verbose=True,
        )
    print()
    print(format_table2(result))
    if args.artifact:
        path = write_table2_artifact(result, args.artifact)
        print(f"\nrun artifact: {path}")
    if result.incidents:
        print(f"orchestration incidents: {len(result.incidents)} (see artifact)")
    return EXIT_OK if result.complete else EXIT_BLOCKING


def _write_baselines(docs: dict[str, dict]) -> None:
    """Atomically refresh a set of baselines: all serialize, then all land.

    Every document is written to a temp file and fsynced before the
    first rename, so a crash mid-update can only leave temp files
    behind, never a mix of old and new baselines.  ``json.dumps(doc,
    indent=2) + "\n"`` keeps refreshing an unchanged baseline a
    byte-level no-op.
    """
    tmps = {}
    try:
        for path, doc in docs.items():
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "w") as fh:
                fh.write(json.dumps(doc, indent=2) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            tmps[path] = tmp
    except BaseException:
        for tmp in tmps.values():
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise
    for path, tmp in tmps.items():
        os.replace(tmp, path)


def _finish(args, failures: list, reduced: dict | None = None, differ=None,
            *, ok: str | None = None) -> int:
    """The analyzer subcommands' shared exit-code tail: blocking
    ``failures`` exit 1 (else ``ok`` prints outside ``--json``), then
    ``--update-baseline`` writes the ``reduced`` slice and
    ``--check-baseline`` diffs it with ``differ``; drift alone exits 3."""
    status = EXIT_OK
    if failures:
        print(f"error: {len(failures)} blocking finding(s)", file=sys.stderr)
        status = EXIT_BLOCKING
    elif ok and not args.json:
        print(ok)
    if getattr(args, "update_baseline", None):
        _write_baselines({args.update_baseline: reduced})
        print(f"baseline written: {args.update_baseline}")
    problems = []
    if getattr(args, "check_baseline", None):
        with open(args.check_baseline) as fh:
            problems = differ(json.load(fh))
        for problem in problems:
            print(f"baseline drift: {problem}", file=sys.stderr)
        if not problems:
            print(f"baseline OK ({args.check_baseline})")
    return EXIT_DRIFT if problems and status == EXIT_OK else status


def _report_failures(bundle: dict) -> list[str]:
    return [f for report in bundle["reports"] for f in report["failures"]]


def _lint_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "lint_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m repro.lint "
        "(default: lint the repro package and validate the models)",
    )


def _cmd_lint(args) -> int:
    from .lint.cli import main as lint_main

    argv = list(args.lint_args)
    if argv and argv[0] == "--":
        argv = argv[1:]
    if not argv:
        # Default gate: lint the installed repro package and statically
        # validate the registry models at every paper grid.
        argv = [str(Path(__file__).resolve().parent), "--models"]
    return lint_main(argv)


def _lint_gate(args) -> tuple[dict, list[str]]:
    from .ir.report import serialize_finding
    from .lint.rules import lint_paths
    from .lint.shapes import ShapeError, validate_registry_models

    findings = lint_paths([Path(__file__).resolve().parent])
    failures = [str(f) for f in findings]
    shape_error = None
    try:
        validate_registry_models(grids=(args.grid,), preset=args.preset)
    except ShapeError as exc:
        shape_error = str(exc)
        failures.append(f"shape validation: {exc}")
    return {"findings": [serialize_finding(f) for f in findings],
            "shape_error": shape_error}, failures


def _analyze_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "model", choices=_MODELS + ("all",),
        help="registry model to trace, or 'all' for the whole registry",
    )
    p.add_argument("--preset", default="fast", choices=_PRESETS)
    p.add_argument(
        "--grid", dest="grids", type=_positive_int, action="append",
        metavar="N", help="input grid size; repeatable (default: 64)",
    )
    p.add_argument("--json", action="store_true",
                   help="print the full repro.ir/v1 report bundle")
    p.add_argument("--top", type=_non_negative_int, default=5,
                   help="rows in the layer/live-range tables (default 5)")
    p.add_argument(
        "--no-determinism", action="store_true",
        help="skip the source-level RNG/iteration-order audit",
    )
    p.add_argument(
        "--check-baseline", metavar="PATH", default=None,
        help="diff FLOPs/peak-memory/node counts against a baseline JSON "
        "and fail on any drift",
    )
    p.add_argument(
        "--update-baseline", metavar="PATH", default=None,
        help="write the invariant slice of this run to a baseline JSON",
    )
    p.add_argument(
        "--backward", action="store_true",
        help="also trace the backward tape: adjoint-graph stats, "
        "gradient-flow findings (REPRO205-207) and the forward+backward "
        "training-memory plan (see repro.adjoint)",
    )


def _mb(nbytes: int) -> str:
    return f"{nbytes / 1e6:,.2f} MB"


def _print_report(report: dict, top: int) -> None:
    cost = report["cost"]
    mem = report["memory"]
    print(f"{report['model']} (preset={report['preset']}, "
          f"grid={report['grid']}, batch={report['batch']})")
    print(f"  graph: {report['graph']['nodes']} nodes, "
          f"params={cost['param_count']:,} ({_mb(cost['param_bytes'])})")
    print(f"  flops: {cost['total_flops']:,} "
          f"({cost['flops_per_output_pixel']:,}/output px)")
    print(f"  memory: peak activations {_mb(mem['peak_bytes'])} "
          f"(+{_mb(mem['persistent_bytes'])} persistent, "
          f"{mem['activation_buffers']} buffers)")
    print("  hottest layers:")
    for layer in cost["by_layer"][:top]:
        print(f"    {layer['flops']:>15,}  {layer['name']} "
              f"({layer['nodes']} nodes)")
    print("  fattest live ranges:")
    for rng in mem["top_liveranges"][:top]:
        dies = "end" if rng["dies"] is None else f"%{rng['dies']}"
        print(f"    {_mb(rng['bytes']):>12}  %{rng['node']} {rng['op']} "
              f"in {rng['scope'] or '<toplevel>'} (dies {dies})")
    opp = report["opportunities"]
    print(f"  opportunities: {opp['dead']['dead_nodes']} dead nodes "
          f"({opp['dead']['dead_flops']:,} flops), "
          f"{opp['duplicates']['duplicate_groups']} duplicate groups "
          f"({opp['duplicates']['wasted_flops']:,} wasted flops, "
          f"{_mb(opp['duplicates']['wasted_bytes'])} wasted)")
    for finding in opp["findings"]:
        print(f"    note: {finding['path']}:{finding['line']}: "
              f"{finding['code']} {finding['message']}")
    if "backward" in report:
        back = report["backward"]
        mem = back["memory"]
        counts = back["adjoint_counts"]
        print(f"  backward: {back['tape_entries']} tape entries -> "
              f"{back['adjoint_nodes']} adjoint nodes "
              f"(vjp={counts.get('vjp', 0)}, add={counts.get('add', 0)}), "
              f"{back['params_connected']}/{back['params_total']} params "
              "connected")
        print(f"  training memory: peak {_mb(mem['train_peak_bytes'])} at "
              f"{mem['peak_pos']} (retained at backward "
              f"{_mb(mem['retained_at_backward_bytes'])}, gradients "
              f"{_mb(mem['grad_bytes_total'])})")
        for finding in back["findings"]:
            print(f"    note: {finding['path']}:{finding['line']}: "
                  f"{finding['code']} {finding['message']}")
    for failure in report["failures"]:
        print(f"  FAIL: {failure}")


def _cmd_analyze(args) -> int:
    from .ir import analyze_registry, baseline_from_reports, check_baseline
    from .models.registry import MODEL_NAMES

    models = MODEL_NAMES if args.model == "all" else (args.model,)
    grids = tuple(args.grids or [64])
    bundle = analyze_registry(
        models, preset=args.preset, grids=grids,
        determinism=not args.no_determinism,
        backward=args.backward,
    )

    failures = _report_failures(bundle)
    if args.json:
        print(json.dumps(bundle, indent=2))
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
    else:
        for report in bundle["reports"]:
            _print_report(report, args.top)
            print()
    return _finish(
        args, failures, baseline_from_reports(bundle),
        lambda doc: check_baseline(bundle, doc),
    )


def _analyze_gate(args) -> tuple[dict, list[str]]:
    from .ir import analyze_registry

    bundle = analyze_registry(preset=args.preset, grids=(args.grid,))
    return bundle, _report_failures(bundle)


def _analyze_baselines(bench: Path) -> dict[str, dict]:
    from .ir import analyze_registry, baseline_from_reports

    forward = analyze_registry(preset="fast", grids=(64, 256))
    backward = analyze_registry(
        preset="fast", grids=(64, 256), determinism=False, backward=True
    )
    return {
        str(bench / "ir_baseline.json"): baseline_from_reports(forward),
        str(bench / "adjoint_baseline.json"): baseline_from_reports(backward),
    }


def _gradcheck_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "model", choices=_MODELS + ("all", "ops"),
        help="registry model to audit, 'all' for the whole registry, or "
        "'ops' for the full primitive-op case sweep without a model",
    )
    p.add_argument("--preset", default="fast", choices=_PRESETS)
    p.add_argument("--grid", type=_positive_int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="print the full repro.adjoint/v1 report bundle")


def _print_gradcheck_report(report: dict) -> None:
    back = report["backward"]
    mem = back["memory"]
    print(f"{report['model']} (preset={report['preset']}, "
          f"grid={report['grid']})")
    print(f"  contracts: {report['contracts']['ran']}/"
          f"{report['contracts']['records']} closures ran over "
          f"{len(report['contracts']['ops'])} op kinds, "
          f"{len(report['contracts']['findings'])} finding(s)")
    print(f"  gradcheck: {report['gradcheck']['cases']} cases, "
          f"{report['gradcheck']['failed']} failed")
    print(f"  flow: {back['params_connected']}/{back['params_total']} "
          f"params connected, {len(back['findings'])} finding(s)")
    print(f"  training memory: peak {_mb(mem['train_peak_bytes'])} at "
          f"{mem['peak_pos']}")
    for section in (report["contracts"], report["gradcheck"], back):
        for finding in section["findings"]:
            print(f"    {finding['path']}:{finding['line']}: "
                  f"{finding['code']} {finding['message']}")


def _cmd_gradcheck(args) -> int:
    from .adjoint import audit_registry, run_gradcheck
    from .models.registry import MODEL_NAMES

    if args.model == "ops":
        # Model-free: sweep every registered primitive-op case.
        result = run_gradcheck(seed=args.seed)
        failed = [c for c in result["cases"] if not c["passed"]]
        if args.json:
            print(json.dumps(result, indent=2))
        else:
            print(f"gradcheck: {len(result['cases'])} cases over "
                  f"{len(result['checked_ops'])} op kinds, "
                  f"{len(failed)} failed")
            for finding in result["findings"]:
                print(f"  {finding}")
            if not result["findings"]:
                print("gradcheck OK")
        return 1 if result["findings"] else 0

    models = MODEL_NAMES if args.model == "all" else (args.model,)
    bundle = audit_registry(
        models, preset=args.preset, grid=args.grid, seed=args.seed
    )
    if args.json:
        print(json.dumps(bundle, indent=2))
    else:
        for report in bundle["reports"]:
            _print_gradcheck_report(report)
    return _finish(args, _report_failures(bundle), ok="gradcheck OK")


def _gradcheck_gate(args) -> tuple[dict, list[str]]:
    from .adjoint import audit_registry

    bundle = audit_registry(preset=args.preset, grid=args.grid)
    return bundle, _report_failures(bundle)


@dataclass(frozen=True)
class Section:
    """One analyzer section: ``add_arguments`` + ``run`` make its
    subcommand, ``gate`` runs it in ``check`` as ``(bundle, failures)``,
    and ``baselines(bench)`` computes the ``benchmarks/``
    documents it pins in their CI configuration."""

    name: str
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]
    gate: Callable[[argparse.Namespace], tuple[dict, list[str]]]
    baselines: Callable[[Path], dict[str, dict]] = lambda bench: {}


#: Every analyzer section, in ``repro check`` order.  The parser, the
#: command table, ``check`` and ``check --update-baselines`` all iterate
#: this tuple; a new section is one entry here.
SECTIONS = (
    Section(
        "lint", "static autograd lint + shape checks (see repro.lint)",
        _lint_args, _cmd_lint, _lint_gate,
    ),
    Section(
        "analyze",
        "symbolic-IR static analysis (memory/FLOPs/stability/determinism)",
        _analyze_args, _cmd_analyze, _analyze_gate, _analyze_baselines,
    ),
    Section(
        "gradcheck",
        "gradient audit: vjp contracts + finite differences "
        "(see repro.adjoint)",
        _gradcheck_args, _cmd_gradcheck, _gradcheck_gate,
    ),
)


def _update_all_baselines() -> int:
    """``repro check --update-baselines``: refresh every benchmark pin.

    Each section computes its documents in its CI-pinned configuration
    (the grids and flags the workflow jobs use), every document is
    serialized first, and only then do they all rename into place — a
    failure anywhere leaves the benchmarks directory untouched.
    """
    bench = Path(__file__).resolve().parents[2] / "benchmarks"
    docs: dict[str, dict] = {}
    for section in SECTIONS:
        docs.update(section.baselines(bench))

    _write_baselines(docs)
    for path in sorted(docs):
        print(f"baseline written: {path}")
    return EXIT_OK


def _iter_finding_codes(obj):
    """Every diagnostic code in a combined report (recursive walk)."""
    if isinstance(obj, dict):
        if "code" in obj and "message" in obj and isinstance(obj["code"], str):
            yield obj["code"]
        for value in obj.values():
            yield from _iter_finding_codes(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _iter_finding_codes(value)


def _cmd_check(args) -> int:
    """The unified gate: every section in ``SECTIONS``, one report."""
    if args.update_baselines:
        return _update_all_baselines()

    combined: dict = {
        "schema": "repro.check/v1",
        "preset": args.preset,
        "grid": args.grid,
    }
    failures: list[str] = []
    counts: dict[str, int] = {}
    for section in SECTIONS:
        bundle, found = section.gate(args)
        combined[section.name] = bundle
        counts[section.name] = len(found)
        failures.extend(found)
    combined["failures"] = failures

    advisories: list[str] = []
    if args.fail_on == "advisory":
        from .diagnostics import all_codes

        registered = all_codes()
        advisories = sorted(
            code
            for code in set(_iter_finding_codes(combined))
            if code in registered and not registered[code].blocking
        )
    if args.json:
        print(json.dumps(combined, indent=2))
    else:
        for name, count in counts.items():
            print(f"{name}: {'OK' if not count else f'{count} failure(s)'}")
        for failure in failures:
            print(f"  FAIL: {failure}")
    if failures:
        print(f"error: {len(failures)} blocking finding(s) across the gate",
              file=sys.stderr)
        return EXIT_BLOCKING
    if advisories:
        print(
            f"error: --fail-on advisory: {len(advisories)} advisory "
            f"code(s) present ({', '.join(advisories)})",
            file=sys.stderr,
        )
        return EXIT_BLOCKING
    if not args.json:
        print("check OK")
    return EXIT_OK


_COMMANDS = {
    "stats": _cmd_stats,
    "place": _cmd_place,
    "route": _cmd_route,
    "score": _cmd_score,
    "train": _cmd_train,
    "table2": _cmd_table2,
    **{section.name: section.run for section in SECTIONS},
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception:  # the contract: unexpected crashes exit 4, not 1
        import traceback

        traceback.print_exc()
        print("error: internal error (see traceback above)", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
