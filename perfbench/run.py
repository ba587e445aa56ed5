"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload flow --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (the package is imported from ``src/``).
With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` the workload runs untraced, then
again with pass-through span wrappers installed, and the last line
carries the per-layer metrics.  The line before it is a report with the
seed, per-metric sample counts, quality figures, check results and a
machine fingerprint; the report (and, for traced runs, the spans) is
also written under ``.bench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# One BLAS thread per process, so table2_par's two workers never run more
# threads than the two cores, and every workload measures the same
# configuration on both commits of a comparison.
BLAS_THREADS = "1"
SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_MIN_SECONDS
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 15
FLOAT32_WORKLOADS = ("predict", "train")

FLOW_LAYERS = ("flow", "table2_par")
# Per-layer name prefix -> the workloads that run that layer (first match
# wins).  Elsewhere the metric reads 0 and the report says why.
MEASURED_BY = (
    ("trace.", ("flow", "predict", "train", "table2_par")),
    ("features.extract", FLOW_LAYERS + ("predict",)),
    ("features.", ("predict",)),
    ("models.predict_s", ("predict",)),
    ("models.flops_per_predict", ("predict",)),
    ("models.flops_per_step_fwd", ("train",)),
    ("models.", ("predict", "train")),
    ("orchestrate.", ("table2_par",)),
    ("train.", ("train",)),
    ("nn.", ("train",)),
    ("netlist.", FLOW_LAYERS),
    ("placement.", FLOW_LAYERS),
    ("routing.", FLOW_LAYERS),
    ("contest.", FLOW_LAYERS),
)


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, as BENCHMARK.json names them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def measured_by(name: str) -> tuple[str, ...]:
    return next(where for prefix, where in MEASURED_BY if name.startswith(prefix))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("flow", "predict", "train", "table2_par"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- provenance ------------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` (None outside a git tree)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_cap": int(BLAS_THREADS),
        "git_commit": _git_commit(),
    }


# -- measurement ------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_phase(workload, seconds: float, ref=None, count: int | None = None,
              deep_checks: bool = True):
    """Whole passes of operations until ``seconds`` of measured time (or
    twice that in wall time) have gone by; exactly ``count`` ops if given.

    With a :class:`Reference`, the kernel also runs around every op.
    """
    results = []
    measured = 0.0
    start = time.perf_counter()
    index = 0
    while count is None or index < count:
        if ref is not None:
            ref.sample()
        result = workload.op(index, self_check=deep_checks and index == 0, deep_checks=deep_checks)
        results.append(result)
        measured += result.seconds
        index += 1
        wall = time.perf_counter() - start
        if count is None and index % workload.unit == 0 and (
            measured >= seconds or wall >= 2 * seconds
        ):
            break
    if ref is not None:
        ref.sample()
    return results


def _tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p90/p99 that has at least ten samples beyond it."""
    best = None
    for pct in (90, 99):
        if len(values) * (100 - pct) / 100 >= 10:
            best = (pct, statistics.quantiles(values, n=100)[pct - 1])
    return best


def end_to_end(ref, setups, results, rss) -> tuple[dict, dict, dict]:
    """End-to-end values (timings in reference seconds), sample counts and
    the report-only extras (raw wall-clock figures among them)."""
    norm = [ref.normalise(r) for r in results]
    raw = [ref.own_seconds(r) for r in results]
    items = sum(r.items for r in results)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    timed = [i for i, r in enumerate(results) if r.seconds > 0]
    latencies = [norm[i] / results[i].per_latency * 1e3 for i in timed]
    setup_norm = [ref.normalise(setup) for setup in setups]
    values = {
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": rss,
        "ok_ratio": 1.0 - failed / attempted if attempted else 0.0,
        "items_per_s": items / sum(norm) if sum(norm) > 0 else 0.0,
        "latency_ms_p50": statistics.median(latencies) if latencies else 0.0,
    }
    samples = {
        "setup_s": len(setups),
        "peak_rss_mb": 1,
        "ok_ratio": attempted,
        "items_per_s": items,
        "latency_ms_p50": len(latencies),
    }
    extras = {
        "error_rate": failed / attempted if attempted else None,
        "wall_setup_s": statistics.median(setup.seconds for setup in setups),
        "wall_items_per_s": items / sum(raw) if sum(raw) > 0 else 0.0,
        "wall_latency_ms_p50": statistics.median(
            raw[i] / results[i].per_latency * 1e3 for i in timed
        ) if timed else 0.0,
        "ref_kernel_ms_p50": statistics.median(ref.durations()) * 1e3,
        "ref_kernel_samples": len(ref.durations()),
    }
    tail = _tail_percentile(latencies)
    if tail is not None:
        extras[f"latency_ms_p{tail[0]}"] = tail[1]
    for key in ("s_r", "hpwl", "loss_final"):
        got = [r.quality[key] for r in results if key in r.quality]
        if got:
            extras[f"{key}_mean"] = statistics.fmean(got)
    return values, samples, extras


# -- traced run ---------------------------------------------------------------------------


def computed_model_counts(seed: int) -> dict:
    """FLOPs and parameters from the ``repro.ir`` cost model (exact counts)."""
    from repro.ir import cost_model, trace_model

    one = cost_model(trace_model("ours", preset="fast", grid=64, batch=1, seed=seed))
    eight = cost_model(trace_model("ours", preset="fast", grid=64, batch=8, seed=seed))
    return {
        "models.params": float(one["param_count"]),
        "models.flops_per_predict": float(one["total_flops"]),
        "models.flops_per_step_fwd": float(eight["total_flops"]),
    }


def traced_phase(workload, args, untraced, ref):
    from tracing import Patches, Tracer, covered_seconds, layer_metrics, merge_layer_metrics

    tracer, patches = Tracer(), Patches()
    workload.install_spans(tracer, patches)
    try:
        results = run_phase(workload, args.seconds, count=len(untraced), deep_checks=False)
    finally:
        patches.undo()
    spans, counts = tracer.take()
    span_sets = [spans]
    parallel = 1
    if args.workload == "table2_par":
        parallel = workload.workers
        for dump in workload.span_dumps:
            span_sets.append(dump["spans"])
            for key, value in dump["counts"].items():
                counts[key] = counts.get(key, 0.0) + value
    layers = merge_layer_metrics([layer_metrics(s) for s in span_sets])
    traced_wall = sum(r.seconds for r in results)
    untraced_wall = sum(ref.own_seconds(r) for r in untraced)
    covered = sum(covered_seconds(s) for s in span_sets)
    per = sum(r.attempted for r in results) or 1
    per_layer = declared_metrics()[1]
    metrics = {name: 0.0 for name in per_layer}
    for name in per_layer:
        if name.endswith("_s") and name[:-2] in layers:
            metrics[name] = layers[name[:-2]]["self_s"] / per
    for key in ("placement.gp_steps", "placement.fallbacks", "routing.nets",
                "routing.connections", "routing.negotiation_iters"):
        metrics[key] = counts.get(key, 0.0) / per
    if counts.get("routing.runs"):
        metrics["routing.converged_ratio"] = counts["routing.converged"] / counts["routing.runs"]
    metrics["trace.coverage"] = covered / (traced_wall * parallel) if traced_wall else 0.0
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    for key, name in (("s_r", "contest.s_r_mean"), ("hpwl", "contest.hpwl_mean"),
                      ("loss_final", "train.loss_final")):
        got = [r.quality[key] for r in results if key in r.quality]
        if got:
            metrics[name] = statistics.fmean(got)
    if args.workload in ("predict", "train"):
        metrics.update(computed_model_counts(args.seed))
        if args.workload == "predict":
            metrics["models.flops_per_step_fwd"] = 0.0
            busy = layers.get("models.predict", {}).get("incl_s", 0.0) / per
            flops = metrics["models.flops_per_predict"]
        else:
            metrics["models.flops_per_predict"] = 0.0
            busy = layers.get("nn.forward", {}).get("incl_s", 0.0) / per
            flops = metrics["models.flops_per_step_fwd"]
            calls = len(results)
            metrics["train.steps"] = counts.get("train.steps", 0.0) / calls
            metrics["train.recoveries"] = counts.get("train.recoveries", 0.0) / calls
        metrics["models.gflops_per_s"] = flops / busy / 1e9 if busy else 0.0
    for name in per_layer:
        got = [sweep[name] for sweep in getattr(workload, "orchestration", []) if name in sweep]
        if got:
            metrics[name] = statistics.fmean(got)
    absent = {
        name: f"the {args.workload} workload does not run this layer"
        for name in per_layer
        if args.workload not in measured_by(name)
    }
    trace_info = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "overhead_s": traced_wall - untraced_wall,
        "coverage": metrics["trace.coverage"],
        "per_layer_unit": f"per {workload.item if args.workload != 'train' else 'optimizer step'}",
        "spans": sum(len(s) for s in span_sets),
        "layers": layers,
        "counts": counts,
        "absent": absent,
    }
    return results, metrics, trace_info, span_sets


# -- main ----------------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: {SRC}/repro not found; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy loads BLAS
    sys.path[:0] = [SRC, HERE]
    import numpy as np

    from workloads import WORKLOADS

    if args.workload in FLOAT32_WORKLOADS:
        import repro.nn as nn

        nn.set_default_dtype(np.float32)

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return _run(args, WORKLOADS[args.workload], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _make(cls, args, scratch):
    if args.workload == "table2_par":
        return cls(args.seed, scratch)
    return cls(args.seed)


def _run(args, cls, scratch) -> int:
    from reference import Reference
    from workloads import OpResult

    ref = Reference()
    setups = []
    with ref:
        while len(setups) < SETUP_REPEATS or (
            sum(r.seconds for r in setups) < SETUP_MIN_SECONDS
            and len(setups) < SETUP_MAX_REPEATS
        ):
            workload = _make(cls, args, scratch)
            ref.sample()
            start = time.perf_counter()
            workload.setup()
            setups.append(OpResult(time.perf_counter() - start, 0, start=start))
            ref.sample()
    workload.start()
    try:
        if getattr(workload, "own_reference", False):
            results = run_phase(workload, args.seconds)
        else:
            with ref:
                results = run_phase(workload, args.seconds, ref)
        try:
            finish_problems, finish_vacuous = workload.finish()
        except Exception as exc:  # reported as an incorrect run, not a crash
            finish_problems, finish_vacuous = {"finish": [f"{type(exc).__name__}: {exc}"]}, []
        traced = traced_phase(workload, args, results, ref) if args.trace else None
    finally:
        workload.close()
    rss = peak_rss_mb()

    values, samples, extras = end_to_end(ref, setups, results, rss)
    ops = results + (traced[0] if traced else [])
    problems = [
        {"op": i, **r.problems} for i, r in enumerate(ops) if r.problems
    ]
    vacuous = sorted({v for r in ops for v in r.vacuous} | set(finish_vacuous))
    correct = not problems and not vacuous and not finish_problems
    attempted = sum(r.attempted for r in ops)
    failed = sum(r.failed for r in ops)

    end_units, layer_units = declared_metrics()
    if traced:
        metrics = {name: {"value": traced[1][name], "unit": unit}
                   for name, unit in layer_units.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in end_units.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(results),
        "item": workload.item,
        "end_to_end": values,
        "samples": samples,
        "extras": extras,
        "checks": {
            "problems": problems[:10],
            "finish": finish_problems,
            "vacuous": vacuous,
        },
        "provenance": provenance(),
    }
    if traced:
        report["trace_info"] = traced[2]
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=float)
    if traced:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for spans in traced[3]:
                fh.write(json.dumps(spans) + "\n")
    summary = {k: v for k, v in report.items() if k != "trace_info"}
    if traced:
        summary["trace_info"] = {k: v for k, v in traced[2].items() if k != "layers"}
    print(json.dumps({"report": summary}, sort_keys=True, default=float))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
