"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's main workflows:

* ``stats``  — print the benchmark-suite statistics (Table I left columns).
* ``place``  — run the Fig. 6 flow on one design and report the outcome.
* ``route``  — route the (freshly placed) design and print Fig. 1 levels.
* ``score``  — place + route + contest scores (Eqs. 1-3) in one shot.
* ``train``  — train a congestion model and save a checkpoint.
* ``table2`` — run the four teams on selected designs (mini Table II).

The analyzers:

* ``lint``   — static AST rules (autograd hazards, unseeded RNG,
  unordered iteration) over the given paths, by default the package
  itself (see repro.lint).
* ``analyze`` — symbolic-IR static analysis of the traced models: FLOP
  cost and numerical stability (see repro.ir).

Every analysis command reports through one exit-code contract (the
table lives in ``docs/API.md``): 0 = clean, 1 = blocking findings,
2 = usage error, 3 = baseline drift only, 4 = internal error.  Blocking
findings take precedence over drift when both occur.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from ._durable import write_durably

__all__ = [
    "main",
    "build_parser",
    "EXIT_OK",
    "EXIT_BLOCKING",
    "EXIT_USAGE",
    "EXIT_DRIFT",
    "EXIT_INTERNAL",
]

# The shared exit-code contract for the analysis commands (lint,
# analyze).  argparse owns 2 (usage).
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
        "--parallel", type=_non_negative_int, default=0, metavar="N",
        help="fan (team, design) evaluations across N supervised worker "
        "processes (repro.orchestrate); 0 = in-process serial "
        "(default %(default)s)",
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

    lint = sub.add_parser(
        "lint", help="static AST lint: autograd and determinism rules "
        "(see repro.lint)",
    )
    lint.add_argument(
        "paths", nargs="*", default=[str(Path(__file__).resolve().parent)],
        help="python files or directories to lint, recursing into *.py "
        "(default: the repro package)",
    )

    analyze = sub.add_parser(
        "analyze",
        help="symbolic-IR static analysis (FLOPs/stability)",
    )
    analyze.add_argument(
        "model", choices=_MODELS + ("all",),
        help="registry model to trace, or 'all' for the whole registry",
    )
    analyze.add_argument("--preset", default="fast", choices=_PRESETS)
    analyze.add_argument(
        "--grid", dest="grids", type=_positive_int, action="append",
        metavar="N", help="input grid size; repeatable (default: 64)",
    )
    analyze.add_argument("--json", action="store_true",
                         help="print the full repro.ir/v1 report bundle")
    analyze.add_argument("--top", type=_non_negative_int, default=5,
                         help="rows in the hottest-layer table (default 5)")
    analyze.add_argument(
        "--check-baseline", metavar="PATH", default=None,
        help="diff FLOP/parameter/node counts against a baseline JSON "
        "and fail on any drift",
    )
    analyze.add_argument(
        "--update-baseline", metavar="PATH", default=None,
        help="write the invariant slice of this run to a baseline JSON",
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
    from .resilience import CheckpointMismatch
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
    # Build (and so validate) the model first: a grid it rejects is a
    # usage error, found before the dataset is generated.
    try:
        model = build_model(args.model, "fast", grid=args.grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    specs = [MLCAD2023_SPECS[name] for name in args.designs]
    dataset = CongestionDataset.build(specs, config)
    if not dataset.train:
        print(f"error: --placements {args.placements} leaves no training "
              "samples (each design keeps at least one placement for "
              "evaluation); use --placements 2 or more", file=sys.stderr)
        return 2
    trainer = Trainer(
        TrainConfig(epochs=args.epochs, batch_size=8, lr=2e-3,
                    max_class_weight=4.0,
                    log_every=max(1, args.epochs // 10),
                    checkpoint_dir=args.checkpoint_dir,
                    checkpoint_every=args.checkpoint_every,
                    resume=args.resume)
    )
    try:
        result = trainer.train(model, dataset)
    except CheckpointMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = Trainer.evaluate(model, dataset.eval)
    if result.quarantined:
        print(f"warning: quarantined {len(result.quarantined)} corrupt "
              f"checkpoint bundle(s) in {args.checkpoint_dir}; training from "
              f"epoch {result.resumed_from_epoch + 1}", file=sys.stderr)
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
    from .contest import format_table2, run_table2, write_table2_artifact

    if args.resume and args.journal is None:
        print("error: --resume requires --journal PATH", file=sys.stderr)
        return EXIT_USAGE
    result = run_table2(
        design_names=tuple(args.designs), scale=1.0 / args.scale,
        verbose=True, parallel=args.parallel, seed=args.seed,
        journal_path=args.journal, resume=args.resume,
    )
    print()
    print(format_table2(result))
    if args.artifact:
        path = write_table2_artifact(result, args.artifact)
        print(f"\nrun artifact: {path}")
    if result.incidents:
        print(f"orchestration incidents: {len(result.incidents)} (see artifact)")
    return EXIT_OK if result.complete else EXIT_BLOCKING


def _write_baseline(path: str, doc: dict) -> None:
    """Land ``doc`` at ``path`` durably, never as a torn baseline.

    ``json.dumps(doc, indent=2) + "\n"`` keeps refreshing an unchanged
    baseline a byte-level no-op.
    """
    data = (json.dumps(doc, indent=2) + "\n").encode()
    write_durably(path, lambda fh: fh.write(data))


def _blocking(failures: list[str]) -> int:
    if failures:
        print(f"error: {len(failures)} blocking finding(s)", file=sys.stderr)
        return EXIT_BLOCKING
    return EXIT_OK


def _report_failures(bundle: dict) -> list[str]:
    return [f for report in bundle["reports"] for f in report["failures"]]


def _cmd_lint(args) -> int:
    from .lint.rules import lint_paths

    try:
        diagnostics = lint_paths(args.paths)
    except OSError as exc:  # no such path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for diagnostic in diagnostics:
        print(diagnostic)
    noun = "finding" if len(diagnostics) == 1 else "findings"
    print(f"lint: {len(diagnostics)} {noun}")
    return EXIT_BLOCKING if diagnostics else EXIT_OK


def _mb(nbytes: int) -> str:
    return f"{nbytes / 1e6:,.2f} MB"


def _print_report(report: dict, top: int) -> None:
    cost = report["cost"]
    print(f"{report['model']} (preset={report['preset']}, "
          f"grid={report['grid']}, batch={report['batch']})")
    print(f"  graph: {report['graph']['nodes']} nodes, "
          f"params={cost['param_count']:,} ({_mb(cost['param_bytes'])})")
    print(f"  flops: {cost['total_flops']:,} "
          f"({cost['flops_per_output_pixel']:,}/output px)")
    print("  hottest layers:")
    for layer in cost["by_layer"][:top]:
        print(f"    {layer['flops']:>15,}  {layer['name']} "
              f"({layer['nodes']} nodes)")
    for failure in report["failures"]:
        print(f"  FAIL: {failure}")


def _cmd_analyze(args) -> int:
    """Exit 1 on blocking findings; then ``--update-baseline`` writes the
    invariant slice and ``--check-baseline`` diffs it: drift alone
    exits 3.  The baseline is read first, so a missing or unparsable
    file is a usage error found before the analysis runs."""
    from .ir import analyze_registry, baseline_from_reports, check_baseline
    from .models.registry import MODEL_NAMES

    baseline = None
    if args.check_baseline:
        try:
            with open(args.check_baseline) as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            print(f"error: cannot read baseline {args.check_baseline}: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    models = MODEL_NAMES if args.model == "all" else (args.model,)
    grids = tuple(args.grids or [64])
    try:
        bundle = analyze_registry(models, preset=args.preset, grids=grids)
    except ValueError as exc:  # build_model rejected a grid
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    failures = _report_failures(bundle)
    if args.json:
        print(json.dumps(bundle, indent=2))
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
    else:
        for report in bundle["reports"]:
            _print_report(report, args.top)
            print()
    status = _blocking(failures)
    if args.update_baseline:
        _write_baseline(args.update_baseline, baseline_from_reports(bundle))
        print(f"baseline written: {args.update_baseline}")
    if baseline is None:
        return status
    problems = check_baseline(bundle, baseline)
    for problem in problems:
        print(f"baseline drift: {problem}", file=sys.stderr)
    if not problems:
        print(f"baseline OK ({args.check_baseline})")
    return EXIT_DRIFT if problems and status == EXIT_OK else status


_COMMANDS = {
    "stats": _cmd_stats,
    "place": _cmd_place,
    "route": _cmd_route,
    "score": _cmd_score,
    "train": _cmd_train,
    "table2": _cmd_table2,
    "lint": _cmd_lint,
    "analyze": _cmd_analyze,
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
