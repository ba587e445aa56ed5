"""The four workloads, driven through the package's public entry points.

Each workload class has the same shape:

* ``setup()`` builds the inputs from the seed (timed as ``setup_s``);
* ``start()`` installs the output probes; ``close()`` removes every wrapper;
* ``op(i, self_check, deep_checks)`` runs operation ``i``, checks its
  outputs (and, with ``self_check``, that each check rejects a planted
  fault) and returns an :class:`OpResult` whose ``seconds`` cover only the
  call into the package;
* ``finish()`` runs the end-of-run checks (repeats, parity);
* ``install_spans(tracer, patches)`` wraps the layers the workload
  exercises, for the traced run;
* ``unit`` is how many operations make one whole pass (a run measures
  whole passes) and ``item`` names what ``items_per_s`` counts.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

from checks import (
    FLOW_CHECKS,
    PREDICT_CHECKS,
    REPEAT_CHECKS,
    SWEEP_CHECKS,
    TRAIN_CHECKS,
    Query,
    Repeat,
    Sweep,
    TrainRun,
    flow_job,
    run_checks,
    score_key,
    self_test,
)
from reference import Reference
from tracing import Capture, Patches, Tracer

SCALE = 1.0 / 64.0
DESIGNS = ("Design_116", "Design_190")
MODEL_GRID = 64
SNAPSHOT_DESIGNS = 2  # designs GP snapshots are taken from (predict)
SNAPSHOTS_PER_DESIGN = 60
SNAPSHOT_EVERY = 3  # GP iterations between snapshots
SNAPSHOT_WARMUP = 30  # GP iterations before the first snapshot
JITTERS = 16  # distinct sub-bin offsets per snapshot (predict)
CHECK_EVERY = 25  # predict: feature and probability checks on every Nth query
TRAIN_EPOCHS = 4
TRAIN_BATCH = 8


@dataclass
class OpResult:
    """One operation: ``items`` count towards throughput, ``attempted`` and
    ``failed`` towards the error rate; latency is ``seconds / per_latency``."""

    seconds: float
    items: int
    failed: int = 0
    start: float = 0.0  # perf_counter at the start of the timed call
    problems: dict = field(default_factory=dict)
    vacuous: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    attempted: int | None = None
    per_latency: int = 1
    # (kernel seconds inside the call, mean kernel time) when the op sampled
    # the reference kernel itself, as table2_par's workers do
    reference: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.attempted is None:
            self.attempted = self.items


def _error(exc: BaseException) -> dict:
    return {"raised": [f"{type(exc).__name__}: {exc}"]}


# -- flow ------------------------------------------------------------------------------


class Flow:
    """The Table II job grid, run serially through ``evaluate_team_on_design``."""

    item = "evaluation"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.patches = Patches()
        self.capture = Capture()
        self.first_keys: dict[int, tuple] = {}

    def setup(self) -> None:
        from repro.contest.teams import contest_teams
        from repro.netlist import MLCAD2023_SPECS, generate_design

        self.teams = contest_teams(seed=self.seed)
        for name in DESIGNS:
            generate_design(MLCAD2023_SPECS[name], scale=SCALE)
        self.grid = [(team, name) for team in self.teams for name in DESIGNS]
        self.unit = len(self.grid)

    def start(self) -> None:
        self.capture.install(self.patches)

    def _evaluate(self, index: int):
        import repro.contest.evaluate as evaluate

        team, name = self.grid[index % self.unit]
        start = time.perf_counter()
        score = evaluate.evaluate_team_on_design(team, name, scale=SCALE)
        return score, start, time.perf_counter() - start

    def op(self, index: int, self_check: bool, deep_checks: bool = True) -> OpResult:
        try:
            score, start, seconds = self._evaluate(index)
        except Exception as exc:  # a failed job is counted, not fatal
            return OpResult(0.0, 1, failed=1, problems=_error(exc))
        outcome, routing, report = self.capture.take()
        job = flow_job(score, outcome, routing, report)
        hpwl = float(outcome.hpwl)
        self.first_keys.setdefault(index % self.unit, score_key(score) + (hpwl,))
        return OpResult(
            seconds,
            1,
            start=start,
            failed=int(bool(outcome.incidents) or not outcome.legal),
            problems=run_checks(FLOW_CHECKS, job),
            vacuous=self_test(FLOW_CHECKS, job) if self_check else [],
            quality={"s_r": float(score.s_r), "hpwl": hpwl},
        )

    def finish(self) -> tuple[dict, list]:
        """Run job 0 again: a repeated pass of one seed must score the same."""
        score, _, _ = self._evaluate(0)
        outcome, _, _ = self.capture.take()
        pair = Repeat(self.first_keys[0], score_key(score) + (float(outcome.hpwl),))
        return run_checks(REPEAT_CHECKS, pair), self_test(REPEAT_CHECKS, pair)

    def install_spans(self, tracer: Tracer, patches: Patches) -> None:
        install_flow_spans(tracer, patches)

    def close(self) -> None:
        self.patches.undo()


def install_flow_spans(tracer: Tracer, patches: Patches) -> None:
    """Spans and counters on the netlist, placement, routing, features and
    contest layers, at the names the flow calls them by."""
    import repro.contest.evaluate as evaluate
    import repro.models.predictor as predictor
    import repro.placement.nesterov as nesterov
    import repro.placement.placer as placer
    import repro.routing.topology as topology
    from repro.features import FeatureExtractor
    from repro.models import ModelEstimator
    from repro.placement import PinDensityAwareEstimator, RudyEstimator
    from repro.placement.density import ElectrostaticSystem
    from repro.placement.regions import RegionTension
    from repro.routing import DetailedRoutingModel, MazeRefiner

    span = tracer.span
    patches.wrap(evaluate, "generate_design", span("netlist.generate"))
    patches.wrap(
        evaluate, "place_design",
        lambda fn: span("placement.flow")(
            tracer.counter("placement.fallbacks", lambda out: len(out.incidents))(fn)
        ),
    )
    patches.wrap(nesterov.GlobalPlacer, "run", span("placement.gp"))
    patches.wrap(nesterov.GlobalPlacer, "step", tracer.counter("placement.gp_steps"))
    patches.wrap(nesterov, "wa_wirelength_grad", span("placement.wirelength"))
    patches.wrap(nesterov, "lse_wirelength_grad", span("placement.wirelength"))
    patches.wrap(ElectrostaticSystem, "energy_and_forces", span("placement.density"))
    patches.wrap(ElectrostaticSystem, "overflow", span("placement.overflow"))
    patches.wrap(RegionTension, "penalty_and_grad", span("placement.region"))
    for estimator in (RudyEstimator, PinDensityAwareEstimator, ModelEstimator):
        patches.wrap(estimator, "__call__", span("placement.estimate"))
    patches.wrap(placer, "inflate_all_fields", span("placement.inflate"))
    patches.wrap(placer, "legalize", span("placement.legalize"))

    def route_counts(fn):
        def routed(design, *args, **kwargs):
            result = fn(design, *args, **kwargs)
            counts = tracer.counts
            counts["routing.runs"] += 1
            counts["routing.nets"] += design.num_nets
            counts["routing.connections"] += result.num_connections
            counts["routing.negotiation_iters"] += result.iterations
            counts["routing.converged"] += bool(result.converged)
            return result

        return span("routing.route")(routed)

    patches.wrap(evaluate, "route_design", route_counts)
    patches.wrap(topology, "decompose_net", span("routing.decompose"))
    patches.wrap(MazeRefiner, "refine", span("routing.maze"))
    patches.wrap(evaluate, "congestion_report", span("routing.congestion"))
    patches.wrap(evaluate, "initial_routing_score", span("contest.score"))
    patches.wrap(DetailedRoutingModel, "evaluate", span("contest.score"))
    patches.wrap(FeatureExtractor, "__call__", span("features.extract"))
    patches.wrap(predictor, "resize_map", span("features.resize"))


# -- table2_par ----------------------------------------------------------------------------


class Table2Par:
    """The flow job grid through ``run_table2(parallel=2, ...)``.

    Workers are forked, so the probes installed here run inside them:
    after each job a worker runs the flow checks on what it produced and
    appends the outcome to a file the parent reads after the sweep.
    """

    item = "evaluation"
    unit = 1
    workers = 2
    own_reference = True  # workers sample the reference kernel themselves

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.patches = Patches()
        self.capture = Capture()
        self.scratch = scratch
        self.first_scores: dict = {}
        self.tracer: Tracer | None = None
        self.report = None
        self.span_dumps: list[dict] = []  # traced sweeps: worker span dumps
        self.orchestration: list[dict] = []  # traced sweeps: orchestrate.* per sweep

    def setup(self) -> None:
        from repro.contest.teams import TEAM_NAMES, contest_teams
        from repro.netlist import MLCAD2023_SPECS, generate_design

        contest_teams(seed=self.seed)
        for name in DESIGNS:
            generate_design(MLCAD2023_SPECS[name], scale=SCALE)
        self.keys = [f"{team}:{name}" for team in TEAM_NAMES for name in DESIGNS]

    def start(self) -> None:
        import repro.contest.evaluate as evaluate
        import repro.orchestrate as orchestrate

        self.capture.install(self.patches)
        self.patches.wrap(evaluate, "evaluate_team_on_design", self._checked_job)
        self.patches.wrap(orchestrate, "run_jobs", self._keep_report)

    def _keep_report(self, fn):
        def run_jobs(*args, **kwargs):
            self.report = fn(*args, **kwargs)
            return self.report

        return run_jobs

    def _checked_job(self, fn):
        """Worker side: run the flow checks after each job, record them."""

        def evaluate_team_on_design(team, design_name, *args, **kwargs):
            key = f"{team.name}:{design_name}"
            tracer = self.tracer
            if tracer is not None:
                tracer.job = key
            sampler = Reference()
            if tracer is None:  # spans must not include kernel time
                with sampler:
                    sampler.sample()
                    score = fn(team, design_name, *args, **kwargs)
                    sampler.sample()
            else:
                score = fn(team, design_name, *args, **kwargs)
            outcome, routing, report = self.capture.take()
            job = flow_job(score, outcome, routing, report)
            record = {
                "job": key,
                "problems": run_checks(FLOW_CHECKS, job),
                "vacuous": self_test(FLOW_CHECKS, job),
                "failed": int(bool(outcome.incidents) or not outcome.legal),
                "hpwl": float(outcome.hpwl),
                "reference": sampler.durations(),
            }
            with open(self._records_path(), "a", encoding="utf-8") as fh:
                fh.write(_json_line(record))
            if tracer is not None:
                tracer.job = None
                if os.getpid() != self.parent_pid:
                    tracer.dump(self._spans_path())
            return score

        return evaluate_team_on_design

    def _records_path(self) -> str:
        return os.path.join(self.sweep_dir, f"checks-{os.getpid()}.jsonl")

    def _spans_path(self) -> str:
        return os.path.join(self.sweep_dir, f"spans-{os.getpid()}.jsonl")

    def _sweep(self, parallel: int, design_names=DESIGNS, **kwargs):
        from repro.contest.evaluate import run_table2

        self.sweep_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.scratch)
        self.parent_pid = os.getpid()
        self.journal = os.path.join(self.sweep_dir, "journal.jsonl")
        start = time.perf_counter()
        result = run_table2(
            parallel=parallel, seed=self.seed, journal_path=self.journal,
            design_names=design_names, **kwargs,
        )
        return result, start, time.perf_counter() - start

    def op(self, index: int, self_check: bool, deep_checks: bool = True) -> OpResult:
        try:
            result, start, seconds = self._sweep(self.workers)
        except Exception as exc:
            return OpResult(0.0, len(self.keys), failed=len(self.keys), problems=_error(exc))
        records = _read_jsonl_dir(self.sweep_dir, "checks-")
        sweep = Sweep(
            jobs=self.keys,
            dispatches=_journal_dispatches(self.journal),
            done={o.key: o.status for o in self.report.outcomes},
            incidents=list(result.incidents),
            worker_checks={r["job"]: r for r in records},
        )
        hpwl = {r["job"]: r["hpwl"] for r in records}
        degraded = {r["job"] for r in records if r["failed"]}
        degraded |= {k for k in self.keys if sweep.done.get(k) != "done" or sweep.dispatches.get(k, 0) != 1}
        scores = [s for by_design in result.scores.values() for s in by_design.values()]
        if self.tracer is not None:
            self.span_dumps.extend(_read_jsonl_dir(self.sweep_dir, "spans-"))
            journal_bytes, journal_records = self._journal_stats()
            self.orchestration.append({
                "orchestrate.wall_s": self.report.wall_seconds,
                "orchestrate.attempts_per_job": float(np.mean([o.attempts for o in self.report.outcomes])),
                "orchestrate.incidents": float(len(self.report.incidents)),
                "orchestrate.journal_bytes": float(journal_bytes),
                "orchestrate.journal_records": float(journal_records),
            })
        if index == 0:
            self.first_scores = {f"{s.team}:{s.design}": s for s in scores}
        kernel = [d for r in records for d in r["reference"]]
        return OpResult(
            seconds,
            len(self.keys),
            start=start,
            reference=(sum(kernel) / self.workers, sum(kernel) / len(kernel)) if kernel else None,
            failed=len(degraded),
            problems=run_checks(SWEEP_CHECKS, sweep),
            vacuous=self_test(SWEEP_CHECKS, sweep) if self_check else [],
            quality={"s_r": float(np.mean([s.s_r for s in scores])),
                     "hpwl": float(np.mean(list(hpwl.values())))} if scores and hpwl else {},
        )

    def finish(self) -> tuple[dict, list]:
        """Serial parity: job 0 run in-process scores as in the parallel sweep.

        Job seeds are spawned by grid position, so the one-job grid
        (first team, first design) draws the same placer seed as job 0
        of the full sweep.
        """
        from repro.contest.teams import TEAM_NAMES

        team, design = TEAM_NAMES[0], DESIGNS[0]
        result, _, _ = self._sweep(0, team_names=(team,), design_names=(design,))
        parity = [replace(REPEAT_CHECKS[0], name="serial_parity")]
        serial = result.scores.get(team, {}).get(design)
        parallel = self.first_scores.get(f"{team}:{design}")
        if serial is None or parallel is None:
            return {"serial_parity": ["job missing from the serial or parallel sweep"]}, []
        pair = Repeat(score_key(parallel), score_key(serial))
        return run_checks(parity, pair), self_test(parity, pair)

    def install_spans(self, tracer: Tracer, patches: Patches) -> None:
        self.tracer = tracer
        install_flow_spans(tracer, patches)

    def _journal_stats(self) -> tuple[int, int]:
        with open(self.journal, "rb") as fh:
            blob = fh.read()
        return len(blob), blob.count(b"\n")

    def close(self) -> None:
        self.patches.undo()


def _json_line(record) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def _read_jsonl_dir(directory: str, prefix: str) -> list[dict]:
    records = []
    for name in sorted(os.listdir(directory)):
        if name.startswith(prefix):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                records.extend(json.loads(line) for line in fh if line.strip())
    return records


def _journal_dispatches(path: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("event") == "dispatched":
                counts[record["job"]] = counts.get(record["job"], 0) + 1
    return counts


# -- predict -----------------------------------------------------------------------------


class Predict:
    """Batch-1 in-flow congestion prediction with ``ModelEstimator``.

    Queries are mid-GP snapshots taken from ``GlobalPlacer.run`` on
    seeded placements, each shifted by one of ``JITTERS`` sub-bin offsets,
    so no two queries in a run repeat unless the run outlasts all
    ``SNAPSHOT_DESIGNS * SNAPSHOTS_PER_DESIGN * JITTERS`` of them.
    """

    item = "prediction"
    unit = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.first_out = None

    def setup(self) -> None:
        from repro.models import ModelEstimator, build_model
        from repro.netlist import MLCAD2023_SPECS, generate_design
        from repro.placement import GlobalPlacer, GPConfig

        rng = np.random.default_rng(self.seed)
        self.model = build_model("ours", "fast", grid=MODEL_GRID, seed=self.seed)
        self.snapshots = []
        for d, name in enumerate(DESIGNS[:SNAPSHOT_DESIGNS]):
            design = generate_design(MLCAD2023_SPECS[name], scale=SCALE)
            placer = GlobalPlacer(design, GPConfig(bins=32, seed=self.seed + d))
            estimator = ModelEstimator(
                self.model, model_grid=MODEL_GRID, out_grid=design.device.tile_cols
            )
            placer.run(max_iters=SNAPSHOT_WARMUP, stop_when=_never)
            for _ in range(SNAPSHOTS_PER_DESIGN):
                placer.run(max_iters=SNAPSHOT_EVERY, stop_when=_never)
                x, y = placer.positions()
                self.snapshots.append((design, estimator, x, y))
        n = max(snapshot[2].size for snapshot in self.snapshots)
        self.jitter = rng.uniform(-0.2, 0.2, size=(JITTERS, 2, n))

    def start(self) -> None:
        pass

    def query(self, index: int):
        count = len(self.snapshots)
        design, estimator, x, y = self.snapshots[index % count]
        jx, jy = self.jitter[(index // count) % JITTERS]
        device = design.device
        x = np.clip(x + jx[: x.size], 0.0, device.width - 1.0)
        y = np.clip(y + jy[: y.size], 0.0, device.height - 1.0)
        return design, estimator, x, y

    def op(self, index: int, self_check: bool, deep_checks: bool = True) -> OpResult:
        design, estimator, x, y = self.query(index)
        start = time.perf_counter()
        try:
            out = estimator(design, x, y)
        except Exception as exc:
            return OpResult(0.0, 1, failed=1, problems=_error(exc))
        seconds = time.perf_counter() - start
        query = Query(out=np.asarray(out), out_grid=estimator.out_grid)
        if deep_checks and index % CHECK_EVERY == 0:
            from repro.features import FeatureExtractor

            query.features = FeatureExtractor(grid=MODEL_GRID)(design, x, y)
            query.proba = self.model.predict_proba(query.features[None])
        if index == 0:
            self.first_out = query.out.copy()
        problems = run_checks(PREDICT_CHECKS, query)
        return OpResult(
            seconds,
            1,
            start=start,
            failed=int("output_shape_range" in problems),
            problems=problems,
            vacuous=self_test(PREDICT_CHECKS, query) if self_check else [],
        )

    def finish(self) -> tuple[dict, list]:
        design, estimator, x, y = self.query(0)
        pair = Repeat(self.first_out, np.asarray(estimator(design, x, y)))
        return run_checks(REPEAT_CHECKS, pair), self_test(REPEAT_CHECKS, pair)

    def install_spans(self, tracer: Tracer, patches: Patches) -> None:
        import repro.models.predictor as predictor
        from repro.features import FeatureExtractor

        patches.wrap(FeatureExtractor, "__call__", tracer.span("features.extract"))
        patches.wrap(predictor, "resize_map", tracer.span("features.resize"))
        patches.wrap(self.model, "predict_proba", tracer.span("models.predict"))
        install_module_spans(self.model, tracer, patches)

    def close(self) -> None:
        pass


def _never(_placer) -> bool:
    return False


def install_module_spans(model, tracer: Tracer, patches: Patches) -> None:
    """A span on the forward of each top-level child of the model."""
    for child_name, child in model._modules.items():
        patches.wrap(child, "forward", tracer.span(f"models.fwd.{child_name}"))


# -- train --------------------------------------------------------------------------------


class Train:
    """``Trainer.train`` on the ``ours`` fast model, batch 8, grid 64."""

    item = "sample"
    unit = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.loss_curves: list[list[float]] = []
        self.tracer: Tracer | None = None
        self.patches_for_model: Patches | None = None

    def setup(self) -> None:
        from repro.netlist import MLCAD2023_SPECS
        from repro.train import CongestionDataset, DatasetConfig

        config = DatasetConfig(
            grid=MODEL_GRID,
            placements_per_design=3,
            design_scale=1.0 / 128.0,
            gp_iters=200,
            stage2_iters=60,
            seed=self.seed,
        )
        self.dataset = CongestionDataset.build([MLCAD2023_SPECS[DESIGNS[0]]], config)
        batches = -(-len(self.dataset.train) // TRAIN_BATCH)
        self.steps_per_call = TRAIN_EPOCHS * batches

    def start(self) -> None:
        pass

    def _model(self):
        from repro.models import build_model

        model = build_model("ours", "fast", grid=MODEL_GRID, seed=self.seed)
        if self.tracer is not None:
            install_module_spans(model, self.tracer, self.patches_for_model)
            self.patches_for_model.wrap(model, "forward", self.tracer.span("nn.forward"))
        return model

    def _train(self, model):
        from repro.train import TrainConfig, Trainer

        trainer = Trainer(TrainConfig(epochs=TRAIN_EPOCHS, batch_size=TRAIN_BATCH, seed=self.seed))
        start = time.perf_counter()
        result = trainer.train(model, self.dataset)
        return result, start, time.perf_counter() - start

    def op(self, index: int, self_check: bool, deep_checks: bool = True) -> OpResult:
        model = self._model()
        try:
            result, start, seconds = self._train(model)
        except Exception as exc:
            return OpResult(
                0.0, 0, failed=self.steps_per_call, problems=_error(exc),
                attempted=self.steps_per_call,
            )
        run = TrainRun(
            losses=list(result.losses),
            recoveries=list(result.recoveries),
            params=[p.data for p in model.parameters()],
        )
        self.loss_curves.append(run.losses)
        if self.tracer is not None:
            self.tracer.counts["train.recoveries"] += len(result.recoveries)
        samples = TRAIN_EPOCHS * len(self.dataset.train)
        return OpResult(
            seconds,
            samples,
            start=start,
            attempted=self.steps_per_call,
            per_latency=self.steps_per_call,
            failed=self.steps_per_call if result.recoveries else 0,
            problems=run_checks(TRAIN_CHECKS, run),
            vacuous=self_test(TRAIN_CHECKS, run) if self_check else [],
            quality={"loss_final": float(result.losses[-1])} if result.losses else {},
        )

    def finish(self) -> tuple[dict, list]:
        """Every call trains the same init on the same data: losses repeat."""
        if len(self.loss_curves) < 2:
            result, _, _ = self._train(self._model())
            self.loss_curves.append(list(result.losses))
        pair = Repeat(self.loss_curves[0], self.loss_curves[-1])
        return run_checks(REPEAT_CHECKS, pair), self_test(REPEAT_CHECKS, pair)

    def install_spans(self, tracer: Tracer, patches: Patches) -> None:
        import repro.nn as nn
        from repro.nn.loss import CrossEntropyLoss2d
        from repro.nn.optim import Adam
        from repro.nn.tensor import Tensor
        from repro.train import CongestionDataset

        self.tracer = tracer
        self.patches_for_model = patches
        patches.wrap(CongestionDataset, "batches", tracer.span_iter("train.batch"))
        patches.wrap(CrossEntropyLoss2d, "forward", tracer.span("nn.loss"))
        patches.wrap(Tensor, "backward", tracer.span("nn.backward"))
        patches.wrap(nn, "clip_grad_norm", tracer.span("nn.clip"))
        patches.wrap(
            Adam, "step",
            lambda fn: tracer.span("nn.optim")(tracer.counter("train.steps")(fn)),
        )

    def close(self) -> None:
        pass


WORKLOADS = {"flow": Flow, "predict": Predict, "train": Train, "table2_par": Table2Par}
