"""Output checks that hold for any seed, each with a planted-fault self-test.

A check is ``fn(artifact) -> list[str]``: the problems it found, empty
when the output is correct.  Every check comes with one or more
planters ``plant(artifact) -> artifact`` that return a damaged copy of a
real output; :func:`self_test` requires the check to report that copy,
so no check can pass vacuously.  Nothing here pins a number from one
run or one machine: every check is an invariant or a cross-check the
benchmark computes itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

S_DR_RANGE = (4, 20)
T_PR_RANGE = (0.15, 2.5)
PROBA_TOL = 1e-4  # float32 softmax: class sums are within ~1e-6 of 1
GLOBAL_SPAN = 4.0  # tiles per global-wire segment (repro.routing.router)


@dataclass(frozen=True)
class Check:
    name: str
    fn: object
    planters: tuple = ()


def run_checks(checks: list[Check], artifact) -> dict[str, list[str]]:
    """Problems per check name (only checks that found some)."""
    found = {}
    for check in checks:
        problems = check.fn(artifact)
        if problems:
            found[check.name] = problems
    return found


def self_test(checks: list[Check], artifact) -> list[str]:
    """Names of checks that accepted a planted fault (vacuous checks)."""
    vacuous = []
    for check in checks:
        for index, plant in enumerate(check.planters):
            if not check.fn(plant(artifact)):
                vacuous.append(f"{check.name}[{index}]")
    return vacuous


# -- flow: one (team, design) evaluation ------------------------------------------


@dataclass
class FlowJob:
    """What one ``evaluate_team_on_design`` call produced."""

    score: object  # ContestScore
    design: object  # the placed Design
    x: np.ndarray  # legalized positions
    y: np.ndarray
    legal_failures: list
    routing: object  # RoutingResult
    report: object  # CongestionReport


def flow_job(score, outcome, routing, report) -> FlowJob:
    return FlowJob(
        score=score,
        design=outcome.design,
        x=np.asarray(outcome.x, dtype=np.float64),
        y=np.asarray(outcome.y, dtype=np.float64),
        legal_failures=list(outcome.legalization.failures),
        routing=routing,
        report=report,
    )


def _placement_legal(job: FlowJob) -> list[str]:
    """Macros sit on distinct sites of their own column type; cascades are
    vertical runs; fenced macros stay in their regions."""
    problems = [f"legalizer reported: {msg}" for msg in job.legal_failures[:3]]
    design, device = job.design, job.design.device
    macros = np.flatnonzero(design.macro_mask)
    x, y = job.x[macros], job.y[macros]
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return problems + ["non-finite macro position"]
    if np.any(x != np.round(x)) or np.any(y != np.round(y)):
        problems.append("macro off the integer site grid")
    cols = np.clip(x.astype(np.int64), 0, device.num_cols - 1)
    wanted = [design.instances[int(i)].resource.site_type for i in macros]
    wrong = sum(device.column_types[c] is not w for c, w in zip(cols, wanted))
    if wrong:
        problems.append(f"{wrong} macro(s) on a column of the wrong site type")
    sites = set(zip(x.tolist(), y.tolist()))
    if len(sites) != macros.size:
        problems.append(f"{macros.size - len(sites)} macro site overlap(s)")
    for cascade in design.cascades:
        idx = np.asarray(cascade.instances)
        cx, cy = job.x[idx], job.y[idx]
        if np.any(cx != cx[0]) or np.any(cy != cy[0] + np.arange(idx.size)):
            problems.append("cascade not a vertical run of consecutive sites")
            break
    fenced = set(macros.tolist())
    for region in design.regions:
        members = [i for i in region.instances if i in fenced]
        rx, ry = job.x[members], job.y[members]
        outside = (rx < region.xlo) | (rx >= region.xhi) | (ry < region.ylo) | (ry >= region.yhi)
        if np.any(outside):
            problems.append(f"{int(outside.sum())} fenced macro(s) outside their region")
    return problems


def _plant_overlap(job: FlowJob) -> FlowJob:
    """Move one macro onto the site of another macro of the same type."""
    design = job.design
    macros = np.flatnonzero(design.macro_mask)
    by_type: dict = {}
    for i in macros:
        by_type.setdefault(design.instances[int(i)].resource, []).append(int(i))
    a, b = next(v[:2] for v in by_type.values() if len(v) >= 2)
    x, y = job.x.copy(), job.y.copy()
    x[b], y[b] = x[a], y[a]
    return replace(job, x=x, y=y)


def _plant_off_grid(job: FlowJob) -> FlowJob:
    x = job.x.copy()
    x[np.flatnonzero(job.design.macro_mask)[0]] += 0.5
    return replace(job, x=x)


def _inside_device(job: FlowJob) -> list[str]:
    device = job.design.device
    x, y = job.x, job.y
    ok = np.isfinite(x) & np.isfinite(y)
    ok &= (x >= 0) & (x < device.width) & (y >= 0) & (y < device.height)
    bad = int((~ok).sum())
    return [f"{bad} instance(s) outside the device or non-finite"] if bad else []


def _plant_outside(job: FlowJob) -> FlowJob:
    x = job.x.copy()
    x[-1] = job.design.device.width + 1.0
    return replace(job, x=x)


def eq1_from_report(report) -> int:
    """Eq. 1 from the per-direction maxima of the short and global levels."""
    penalty = 0
    for levels in (report.short_levels, report.global_levels):
        worst = np.asarray(levels).reshape(4, -1).max(axis=1)
        penalty += sum(max(0, int(level) - 3) ** 2 for level in worst)
    return 1 + penalty


def _s_ir_eq1(job: FlowJob) -> list[str]:
    want = eq1_from_report(job.report)
    got = job.score.s_ir
    return [] if got == want else [f"S_IR {got} != Eq. 1 recomputed {want}"]


def _plant_s_ir(job: FlowJob) -> FlowJob:
    return replace(job, score=replace(job.score, s_ir=job.score.s_ir + 1))


def _score_ranges(job: FlowJob) -> list[str]:
    s = job.score
    problems = []
    if not (S_DR_RANGE[0] <= s.s_dr <= S_DR_RANGE[1]):
        problems.append(f"S_DR {s.s_dr} outside {S_DR_RANGE}")
    if not (math.isfinite(s.t_pr_hours) and T_PR_RANGE[0] <= s.t_pr_hours <= T_PR_RANGE[1]):
        problems.append(f"T_P&R {s.t_pr_hours} h outside {T_PR_RANGE}")
    return problems


def _plant_s_dr(job: FlowJob) -> FlowJob:
    return replace(job, score=replace(job.score, s_dr=S_DR_RANGE[1] + 1))


def _plant_t_pr(job: FlowJob) -> FlowJob:
    return replace(job, score=replace(job.score, t_pr_hours=T_PR_RANGE[0] / 2))


def _usage_arrays(routing):
    return {
        "h_short": routing.h_short,
        "v_short": routing.v_short,
        "h_global": routing.h_global,
        "v_global": routing.v_global,
    }


def _usage_and_levels(job: FlowJob) -> list[str]:
    problems = []
    for name, usage in _usage_arrays(job.routing).items():
        usage = np.asarray(usage)
        if not np.all(np.isfinite(usage)) or np.any(usage < 0):
            problems.append(f"{name} usage not finite and >= 0")
    for name in ("short_levels", "global_levels", "level_map"):
        levels = np.asarray(getattr(job.report, name))
        if levels.dtype.kind not in "iu" or levels.min() < 0 or levels.max() > 7:
            problems.append(f"{name} not integer levels in 0..7")
    return problems


def _plant_negative_usage(job: FlowJob) -> FlowJob:
    h = np.array(job.routing.h_short, dtype=np.float64)
    h.flat[0] = -1.0
    return replace(job, routing=replace(job.routing, h_short=h))


def _plant_level_8(job: FlowJob) -> FlowJob:
    levels = np.array(job.report.level_map)
    levels.flat[0] = 8
    return replace(job, report=replace(job.report, level_map=levels))


def tile_hpwl_lower_bound(design, x, y) -> int:
    """Sum over nets of the half-perimeter of the net's pin tiles.

    Any tree joining a net's pin tiles is at least this long, so the
    routed crossings can never be fewer.  Tiles are computed as the
    router maps sites to tiles.
    """
    device = design.device
    gw, gh = device.tile_cols, device.tile_rows
    tx = np.clip((x / device.width * gw).astype(np.int64), 0, gw - 1)
    ty = np.clip((y / device.height * gh).astype(np.int64), 0, gh - 1)
    px, py = tx[design.pin_inst], ty[design.pin_inst]
    n = design.num_nets
    lo_x, hi_x = np.full(n, gw), np.full(n, -1)
    lo_y, hi_y = np.full(n, gh), np.full(n, -1)
    np.minimum.at(lo_x, design.pin_net, px)
    np.maximum.at(hi_x, design.pin_net, px)
    np.minimum.at(lo_y, design.pin_net, py)
    np.maximum.at(hi_y, design.pin_net, py)
    has_pins = hi_x >= 0
    return int(((hi_x - lo_x) + (hi_y - lo_y))[has_pins].sum())


def routed_crossings(routing) -> float:
    """Tile-boundary crossings of all routed connections (short + global)."""
    u = _usage_arrays(routing)
    short = float(np.sum(u["h_short"]) + np.sum(u["v_short"]))
    return short + GLOBAL_SPAN * float(np.sum(u["h_global"]) + np.sum(u["v_global"]))


def _wirelength_bound(job: FlowJob) -> list[str]:
    bound = tile_hpwl_lower_bound(job.design, job.x, job.y)
    routed = routed_crossings(job.routing)
    if routed + 1e-6 * max(bound, 1) < bound:
        return [f"routed wirelength {routed:.1f} < net tile half-perimeter sum {bound}"]
    return []


def _plant_short_routes(job: FlowJob) -> FlowJob:
    scaled = {k: np.asarray(v) * 0.25 for k, v in _usage_arrays(job.routing).items()}
    return replace(job, routing=replace(job.routing, **scaled))


FLOW_CHECKS = [
    Check("placement_legal", _placement_legal, (_plant_overlap, _plant_off_grid)),
    Check("inside_device", _inside_device, (_plant_outside,)),
    Check("s_ir_eq1", _s_ir_eq1, (_plant_s_ir,)),
    Check("s_dr_t_pr_ranges", _score_ranges, (_plant_s_dr, _plant_t_pr)),
    Check("usage_and_levels", _usage_and_levels, (_plant_negative_usage, _plant_level_8)),
    Check("wirelength_lower_bound", _wirelength_bound, (_plant_short_routes,)),
]


def score_key(score) -> tuple:
    """The parts of a score that must repeat exactly (T_macro is wall time)."""
    return (int(score.s_ir), int(score.s_dr), float(score.t_pr_hours))


@dataclass
class Repeat:
    """A result and the same computation run again."""

    first: object
    again: object


def _repeat_identical(pair: Repeat) -> list[str]:
    a, b = pair.first, pair.again
    if isinstance(a, np.ndarray):
        same = a.shape == b.shape and np.array_equal(a, b)
    else:
        same = a == b
    return [] if same else ["repeated run gave a different result"]


def _plant_repeat(pair: Repeat) -> Repeat:
    b = pair.again
    if isinstance(b, np.ndarray):
        b = b + np.finfo(np.float32).eps * (1.0 + np.abs(b))
    elif isinstance(b, tuple):
        b = (b[0] + 1,) + b[1:]
    else:
        b = list(b[:-1]) + [b[-1] * (1 + 1e-6) + 1e-6]
    return Repeat(pair.first, b)


REPEAT_CHECKS = [Check("repeat_identical", _repeat_identical, (_plant_repeat,))]


# -- predict: one in-flow congestion query ----------------------------------------


@dataclass
class Query:
    out: np.ndarray  # the estimator's level map
    out_grid: int
    proba: np.ndarray | None = None  # (1, 8, G, G) from predict_proba
    features: np.ndarray | None = None  # (6, G, G) from FeatureExtractor


def _output_shape_range(q: Query) -> list[str]:
    out = np.asarray(q.out)
    if out.shape != (q.out_grid, q.out_grid):
        return [f"output shape {out.shape} != {(q.out_grid, q.out_grid)}"]
    if not np.all(np.isfinite(out)) or out.min() < 0 or out.max() > 7:
        return ["output not finite in [0, 7]"]
    return []


def _plant_nan_output(q: Query) -> Query:
    out = np.array(q.out)
    out.flat[0] = np.nan
    return replace(q, out=out)


def _plant_bad_shape(q: Query) -> Query:
    return replace(q, out=np.asarray(q.out)[:-1])


def _proba_sums(q: Query) -> list[str]:
    if q.proba is None:
        return []
    p = np.asarray(q.proba, dtype=np.float64)
    err = float(np.abs(p.sum(axis=1) - 1.0).max())
    if p.min() < 0 or err > PROBA_TOL:
        return [f"class probabilities do not sum to 1 (max error {err:.2e})"]
    return []


def _plant_proba(q: Query) -> Query:
    return replace(q, proba=np.asarray(q.proba) * 1.01)


_H, _V, _RUDY = 1, 2, 3  # FEATURE_NAMES order: macro, h, v, rudy, pin_rudy, cell


def _feature_maps(q: Query) -> list[str]:
    if q.features is None:
        return []
    f = np.asarray(q.features, dtype=np.float64)
    problems = []
    if f.shape[0] != 6 or not np.all(np.isfinite(f)) or f.min() < 0:
        problems.append("feature maps not six finite maps >= 0")
    half = (f[_H] + f[_V]) / 2.0
    tol = 1e-5 * max(1.0, float(np.abs(half).max()))
    if not np.allclose(f[_RUDY], half, rtol=1e-5, atol=tol):
        problems.append("rudy != (h + v) / 2 after normalisation")
    return problems


def _plant_rudy(q: Query) -> Query:
    f = np.array(q.features)
    f[_RUDY] += 0.01 * (float(f[_RUDY].max()) + 1e-3)
    return replace(q, features=f)


def _plant_negative_feature(q: Query) -> Query:
    f = np.array(q.features)
    f[0].flat[0] = -1.0
    return replace(q, features=f)


PREDICT_CHECKS = [
    Check("output_shape_range", _output_shape_range, (_plant_nan_output, _plant_bad_shape)),
    Check("proba_sums", _proba_sums, (_plant_proba,)),
    Check("feature_maps", _feature_maps, (_plant_rudy, _plant_negative_feature)),
]


# -- train: one Trainer.train call --------------------------------------------------


@dataclass
class TrainRun:
    losses: list
    recoveries: list
    params: list = field(default_factory=list)  # parameter arrays after training


def _losses_finite(run: TrainRun) -> list[str]:
    if not run.losses or not all(math.isfinite(v) for v in run.losses):
        return [f"epoch losses not all finite: {run.losses}"]
    return []


def _plant_nan_loss(run: TrainRun) -> TrainRun:
    return replace(run, losses=list(run.losses) + [float("nan")])


def _no_rollbacks(run: TrainRun) -> list[str]:
    return [f"{len(run.recoveries)} divergence rollback(s)"] if run.recoveries else []


def _plant_rollback(run: TrainRun) -> TrainRun:
    return replace(run, recoveries=list(run.recoveries) + [{"epoch": 0}])


def _params_finite(run: TrainRun) -> list[str]:
    bad = sum(not np.all(np.isfinite(p)) for p in run.params)
    if not run.params or bad:
        return [f"{bad} parameter array(s) not finite after training"]
    return []


def _plant_nan_param(run: TrainRun) -> TrainRun:
    first = np.array(run.params[0])
    first.flat[0] = np.nan
    return replace(run, params=[first] + list(run.params[1:]))


TRAIN_CHECKS = [
    Check("losses_finite", _losses_finite, (_plant_nan_loss,)),
    Check("no_rollbacks", _no_rollbacks, (_plant_rollback,)),
    Check("params_finite", _params_finite, (_plant_nan_param,)),
]


# -- table2_par: one supervised parallel sweep ---------------------------------------


@dataclass
class Sweep:
    jobs: list  # expected job keys
    dispatches: dict  # job key -> times dispatched (from the journal)
    done: dict  # job key -> status
    incidents: list
    worker_checks: dict  # job key -> {"problems": {...}, "vacuous": [...]}


def _first_attempt(s: Sweep) -> list[str]:
    problems = []
    if set(s.done) != set(s.jobs):
        problems.append(f"swept jobs {sorted(s.done)} != job grid {sorted(s.jobs)}")
    for key in s.jobs:
        if s.done.get(key) != "done" or s.dispatches.get(key, 0) != 1:
            problems.append(
                f"{key}: status {s.done.get(key)}, dispatched {s.dispatches.get(key, 0)}x"
            )
    if s.incidents:
        problems.append(f"{len(s.incidents)} orchestration incident(s)")
    return problems


def _plant_retry(s: Sweep) -> Sweep:
    return replace(s, dispatches={**s.dispatches, s.jobs[0]: 2})


def _worker_flow_checks(s: Sweep) -> list[str]:
    problems = []
    for key in s.jobs:
        record = s.worker_checks.get(key)
        if record is None:
            problems.append(f"{key}: no flow-check record from the worker")
        elif record["problems"] or record["vacuous"]:
            problems.append(f"{key}: {record['problems']} vacuous={record['vacuous']}")
    return problems


def _plant_missing_record(s: Sweep) -> Sweep:
    records = dict(s.worker_checks)
    records.pop(s.jobs[0], None)
    return replace(s, worker_checks=records)


SWEEP_CHECKS = [
    Check("first_attempt", _first_attempt, (_plant_retry,)),
    Check("worker_flow_checks", _worker_flow_checks, (_plant_missing_record,)),
]
