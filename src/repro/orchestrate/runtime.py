"""Fault-tolerant process-pool supervisor with journaled resume.

:func:`run_jobs` fans a list of :class:`JobSpec`\\ s across persistent
worker processes (:mod:`repro.orchestrate.worker`) and supervises them:

- **deadlines** — a job running past ``deadline`` seconds gets its
  worker SIGKILL'd and the job re-dispatched (REPRO502);
- **heartbeat watchdog** — workers heartbeat while computing, so a
  *hung* process (no crash, no result) is detected after
  ``heartbeat_grace`` seconds of silence, not at the deadline;
- **bounded retries** — each failure re-queues the job after an
  exponential backoff with seeded jitter, up to ``max_attempts``;
- **quarantine** — a job that exhausts its budget is quarantined
  (REPRO505 + REPRO503) and the run completes without it;
- **worker restart** — a dead worker slot is restarted with backoff
  whenever work remains, so one poison job cannot drain the pool;
- **deterministic seeding** — per-job RNG streams come from
  ``SeedSequence(seed).spawn(n)`` assigned by *submission index* and
  reused across retries, which makes a parallel run bitwise-identical
  to ``workers=0`` serial execution by construction.

With ``journal_path`` every transition is appended to a durable fsync'd
JSONL journal (:mod:`repro.orchestrate.journal`); ``resume=True`` skips
digest-verified completed jobs from a previous run and re-dispatches
everything else.  A job whose arguments do not pickle fails at once,
without retry (REPRO507); the other jobs run on.  Incidents carry
``REPRO501``–``507`` codes from the central :mod:`repro.diagnostics`
registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing import connection, get_all_start_methods, get_context
from multiprocessing.reduction import ForkingPickler

import numpy as np

from ..diagnostics import spec_of
from .journal import Journal, JournalError, payload_digest, read_journal
from .worker import error_info, worker_main

__all__ = [
    "CODE_WORKER_CRASH",
    "CODE_DEADLINE",
    "CODE_QUARANTINE",
    "CODE_JOURNAL_RECOVERY",
    "CODE_RETRY_EXHAUSTED",
    "CODE_PAYLOAD_INVALID",
    "CODE_UNPICKLABLE",
    "JobSpec",
    "RuntimeConfig",
    "OrchestrationIncident",
    "JobOutcome",
    "RunReport",
    "run_jobs",
]

CODE_WORKER_CRASH = "REPRO501"
CODE_DEADLINE = "REPRO502"
CODE_QUARANTINE = "REPRO503"
CODE_JOURNAL_RECOVERY = "REPRO504"
CODE_RETRY_EXHAUSTED = "REPRO505"
CODE_PAYLOAD_INVALID = "REPRO506"
CODE_UNPICKLABLE = "REPRO507"


def _default_start_method() -> str:
    # fork keeps worker startup cheap (children inherit sys.path and the
    # already-imported repro modules); spawn is the portable fallback.
    return "fork" if "fork" in get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: a picklable dotted callable plus arguments.

    ``fn`` is a ``"package.module:attr"`` reference resolved inside the
    worker, so specs stay picklable under every start method.  When the
    run is seeded the callable additionally receives a ``seed_seq``
    keyword (its private :class:`numpy.random.SeedSequence` child).
    """

    key: str
    fn: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RuntimeConfig:
    """Supervision policy for one :func:`run_jobs` invocation."""

    workers: int = 2
    deadline: float = 120.0  # per-job wall-clock budget (seconds)
    heartbeat_interval: float = 0.2  # worker heartbeat period
    heartbeat_grace: float = 30.0  # silence tolerated before a kill
    max_attempts: int = 3  # per-job attempt budget
    backoff_base: float = 0.05  # first retry delay (seconds)
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    backoff_jitter: float = 0.25  # +/- fraction of the delay
    restart_backoff: float = 0.05  # delay before restarting a dead slot
    seed: int | None = None  # root of the per-job SeedSequence tree
    start_method: str = field(default_factory=_default_start_method)
    chaos: object | None = None  # resilience.faults.ChaosConfig
    journal_chaos: object | None = None  # resilience.faults.JournalChaos
    validate: object | None = None  # callable(payload) raising on bad
    run_timeout: float | None = None  # whole-run backstop (None = off)
    verbose: bool = False


@dataclass(frozen=True)
class OrchestrationIncident:
    """One supervision event, tagged with its REPRO5xx diagnostic."""

    code: str
    job: str | None
    worker: int | None
    attempt: int | None
    detail: str = ""

    @property
    def message(self) -> str:
        return spec_of(self.code).message

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "job": self.job,
            "worker": self.worker,
            "attempt": self.attempt,
            "detail": self.detail,
        }


@dataclass
class JobOutcome:
    """Terminal state of one job after supervision."""

    key: str
    status: str  # "done" | "quarantined" | "failed"
    attempts: int
    result: object = None
    error: dict | None = None  # {"type", "message", "traceback"} of last failure
    resumed: bool = False  # satisfied from the journal, not re-run


@dataclass
class RunReport:
    """What :func:`run_jobs` returns: outcomes in submission order."""

    outcomes: list[JobOutcome]
    incidents: list[OrchestrationIncident]
    wall_seconds: float

    @property
    def complete(self) -> bool:
        return all(o.status == "done" for o in self.outcomes)

    @property
    def resumed(self) -> int:
        return sum(1 for o in self.outcomes if o.resumed)

    def results(self) -> dict[str, object]:
        """``{job key: payload}`` for every successfully completed job."""
        return {o.key: o.result for o in self.outcomes if o.status == "done"}


class _Job:
    """Mutable supervision state for one submitted JobSpec."""

    __slots__ = (
        "index", "spec", "seed_seq", "attempts", "status",
        "result", "error", "resumed", "ready_at",
    )

    def __init__(self, index: int, spec: JobSpec, seed_seq) -> None:
        self.index = index
        self.spec = spec
        self.seed_seq = seed_seq
        self.attempts = 0
        self.status = "pending"  # pending | running | done | quarantined | failed
        self.result = None
        self.error: dict | None = None
        self.resumed = False
        self.ready_at = 0.0  # monotonic time before which it must not run


class _Worker:
    """One pool slot: a live process, or a corpse awaiting restart."""

    __slots__ = ("wid", "proc", "conn", "job", "dispatched_at", "last_beat", "restart_at")

    def __init__(self, wid: int) -> None:
        self.wid = wid
        self.proc = None
        self.conn = None
        self.job: _Job | None = None
        self.dispatched_at = 0.0
        self.last_beat = 0.0
        self.restart_at = 0.0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class _Supervisor:
    _TICK = 0.02  # event-loop wait quantum (seconds)

    def __init__(self, jobs: list[_Job], config: RuntimeConfig, journal: Journal | None):
        self.jobs = jobs
        self.config = config
        self.journal = journal
        self.incidents: list[OrchestrationIncident] = []
        self.workers = [_Worker(i) for i in range(config.workers)]
        self.ctx = get_context(config.start_method)
        # Jitter timing only — job results never depend on this stream.
        self.rng = np.random.default_rng(0 if config.seed is None else config.seed)

    # -- bookkeeping ----------------------------------------------------------

    def _log(self, record: dict) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _incident(self, code, job=None, worker=None, attempt=None, detail=""):
        incident = OrchestrationIncident(code, job, worker, attempt, detail)
        self.incidents.append(incident)
        if self.config.verbose:
            print(f"[orchestrate] {code} job={job} worker={worker}: {detail}")

    def _backoff(self, attempt: int) -> float:
        cfg = self.config
        delay = min(cfg.backoff_base * cfg.backoff_factor ** (attempt - 1), cfg.backoff_max)
        return delay * (1.0 + cfg.backoff_jitter * float(self.rng.random()))

    def _fail_attempt(self, job: _Job, reason: str, detail: dict | str) -> None:
        """Record a failed attempt and either re-queue or quarantine."""
        job.error = detail if isinstance(detail, dict) else {
            "type": reason, "message": str(detail), "traceback": [],
        }
        self._log({
            "event": "failed", "job": job.spec.key, "attempt": job.attempts,
            "reason": reason, "detail": job.error,
        })
        if job.attempts >= self.config.max_attempts:
            self._incident(
                CODE_RETRY_EXHAUSTED, job=job.spec.key, attempt=job.attempts,
                detail=f"{job.attempts} attempts failed; last: {reason}",
            )
            self._incident(
                CODE_QUARANTINE, job=job.spec.key, attempt=job.attempts,
                detail="job quarantined after retry budget",
            )
            job.status = "quarantined"
            self._log({
                "event": "quarantined", "job": job.spec.key, "attempts": job.attempts,
            })
        else:
            job.status = "pending"
            job.ready_at = time.monotonic() + self._backoff(job.attempts)

    def _complete(self, job: _Job, payload) -> None:
        validate = self.config.validate
        if validate is not None:
            try:
                validate(payload)
            except Exception as exc:
                self._incident(
                    CODE_PAYLOAD_INVALID, job=job.spec.key, attempt=job.attempts,
                    detail=f"{type(exc).__name__}: {exc}",
                )
                self._fail_attempt(job, "payload-invalid", error_info(exc))
                return
        job.result = payload
        job.status = "done"
        record = {"event": "completed", "job": job.spec.key, "attempt": job.attempts}
        if self.journal is not None:
            record["result"] = payload
            record["digest"] = payload_digest(payload)
        self._log(record)

    def _fail_unpicklable(self, job: _Job, exc: Exception) -> None:
        """Fail a job whose message does not pickle; a retry cannot help."""
        job.status = "failed"
        job.error = error_info(exc)
        self._incident(
            CODE_UNPICKLABLE, job=job.spec.key, attempt=job.attempts,
            detail=f"{type(exc).__name__}: {exc}",
        )
        self._log({
            "event": "failed", "job": job.spec.key, "attempt": job.attempts,
            "reason": "unpicklable", "detail": job.error,
        })

    # -- worker lifecycle -----------------------------------------------------

    def _spawn_worker(self, slot: _Worker) -> None:
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=worker_main,
            args=(child_conn, slot.wid, self.config.chaos, self.config.heartbeat_interval),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        slot.proc, slot.conn, slot.job = proc, parent_conn, None

    def _kill_worker(self, slot: _Worker) -> None:
        if slot.proc is not None:
            if slot.proc.is_alive():
                slot.proc.kill()
            slot.proc.join(timeout=5.0)
        if slot.conn is not None:
            slot.conn.close()
        slot.proc, slot.conn, slot.job = None, None, None
        slot.restart_at = time.monotonic() + self.config.restart_backoff

    def _worker_lost(self, slot: _Worker, code: str, detail: str) -> None:
        job = slot.job
        if job is not None:
            self._incident(
                code, job=job.spec.key, worker=slot.wid, attempt=job.attempts, detail=detail,
            )
            self._fail_attempt(job, "worker-lost", detail)
        self._kill_worker(slot)

    def _dispatch(self, slot: _Worker, job: _Job) -> None:
        job.attempts += 1
        # Pickle here, as conn.send would, so that a job which cannot be
        # sent fails alone instead of aborting the run.
        try:
            message = ForkingPickler.dumps((
                "job", job.spec.key, job.attempts, job.spec.fn,
                job.spec.args, job.spec.kwargs, job.seed_seq,
            ))
        except Exception as exc:
            self._fail_unpicklable(job, exc)
            return
        job.status = "running"
        slot.job = job
        now = time.monotonic()
        slot.dispatched_at = now
        slot.last_beat = now
        self._log({
            "event": "dispatched", "job": job.spec.key,
            "attempt": job.attempts, "worker": slot.wid,
        })
        try:
            slot.conn.send_bytes(message)
        except (OSError, ValueError) as exc:
            self._worker_lost(slot, CODE_WORKER_CRASH, f"dispatch failed: {exc}")

    # -- event loop -----------------------------------------------------------

    def run(self) -> None:
        started = time.monotonic()
        try:
            while self._unfinished():
                if (
                    self.config.run_timeout is not None
                    and time.monotonic() - started > self.config.run_timeout
                ):
                    self._abort_run()
                    return
                self._reap_and_restart()
                self._dispatch_ready()
                self._drain_messages()
                self._check_watchdogs()
        finally:
            self._shutdown()

    def _unfinished(self) -> bool:
        return any(j.status in ("pending", "running") for j in self.jobs)

    def _abort_run(self) -> None:
        for job in self.jobs:
            if job.status in ("pending", "running"):
                job.status = "failed"
                job.error = {
                    "type": "RunTimeout",
                    "message": f"run exceeded run_timeout={self.config.run_timeout}s",
                    "traceback": [],
                }

    def _reap_and_restart(self) -> None:
        now = time.monotonic()
        pending = any(j.status == "pending" for j in self.jobs)
        for slot in self.workers:
            if slot.proc is not None and not slot.proc.is_alive():
                self._worker_lost(slot, CODE_WORKER_CRASH, "worker process died")
            elif slot.proc is None and pending and now >= slot.restart_at:
                self._spawn_worker(slot)

    def _dispatch_ready(self) -> None:
        now = time.monotonic()
        idle = [s for s in self.workers if s.alive and s.job is None]
        if not idle:
            return
        ready = sorted(
            (j for j in self.jobs if j.status == "pending" and j.ready_at <= now),
            key=lambda j: j.index,
        )
        for slot, job in zip(idle, ready):
            self._dispatch(slot, job)

    def _drain_messages(self) -> None:
        conns = {s.conn: s for s in self.workers if s.alive and s.conn is not None}
        if not conns:
            time.sleep(self._TICK)
            return
        for conn in connection.wait(list(conns), timeout=self._TICK):
            slot = conns[conn]
            try:
                while True:
                    msg = conn.recv()
                    self._handle_message(slot, msg)
                    if not conn.poll():
                        break
            except (EOFError, OSError):
                self._worker_lost(slot, CODE_WORKER_CRASH, "connection closed")

    def _handle_message(self, slot: _Worker, msg) -> None:
        kind, key, attempt = msg[0], msg[1], msg[2]
        job = slot.job
        if job is None or job.spec.key != key or job.attempts != attempt:
            return  # stale: from an attempt we already killed or re-queued
        if kind == "hb":
            slot.last_beat = time.monotonic()
        elif kind == "result":
            slot.job = None
            self._complete(job, msg[3])
        elif kind == "error":
            slot.job = None
            job.status = "pending"  # _fail_attempt re-queues or quarantines
            self._fail_attempt(job, "exception", msg[3])

    def _check_watchdogs(self) -> None:
        now = time.monotonic()
        for slot in self.workers:
            job = slot.job
            if job is None or not slot.alive:
                continue
            if now - slot.dispatched_at > self.config.deadline:
                self._worker_lost(
                    slot, CODE_DEADLINE,
                    f"deadline {self.config.deadline}s exceeded",
                )
            elif now - slot.last_beat > self.config.heartbeat_grace:
                self._worker_lost(
                    slot, CODE_DEADLINE,
                    f"no heartbeat for {self.config.heartbeat_grace}s",
                )

    def _shutdown(self) -> None:
        for slot in self.workers:
            if slot.conn is not None and slot.alive:
                try:
                    slot.conn.send(("shutdown",))
                except (OSError, ValueError):
                    pass
        for slot in self.workers:
            if slot.proc is not None:
                slot.proc.join(timeout=1.0)
                if slot.proc.is_alive():
                    slot.proc.kill()
                    slot.proc.join(timeout=5.0)
            if slot.conn is not None:
                slot.conn.close()
            slot.proc, slot.conn, slot.job = None, None, None


def _run_serial(jobs: list[_Job], config: RuntimeConfig, supervisor: _Supervisor) -> None:
    """In-process executor: same seeding/journal/retry semantics, no pool."""
    from .worker import resolve_callable

    for job in jobs:
        while job.status == "pending":
            job.attempts += 1
            job.status = "running"
            supervisor._log({
                "event": "dispatched", "job": job.spec.key,
                "attempt": job.attempts, "worker": None,
            })
            try:
                fn = resolve_callable(job.spec.fn)
                kwargs = dict(job.spec.kwargs)
                if job.seed_seq is not None:
                    kwargs["seed_seq"] = job.seed_seq
                payload = fn(*job.spec.args, **kwargs)
            except Exception as exc:
                job.status = "pending"
                supervisor._fail_attempt(job, "exception", error_info(exc))
                continue
            supervisor._complete(job, payload)


def run_jobs(
    jobs: list[JobSpec] | tuple[JobSpec, ...],
    config: RuntimeConfig | None = None,
    *,
    journal_path=None,
    resume: bool = False,
) -> RunReport:
    """Execute ``jobs`` under supervision and return a :class:`RunReport`.

    ``workers=0`` runs everything serially in-process with identical
    seeding, journaling, validation and retry semantics — the reference
    a parallel run must match bitwise.  With ``journal_path`` the run is
    durable; ``resume=True`` additionally reads the existing journal,
    keeps digest-verified completed payloads (outcomes flagged
    ``resumed``) and re-dispatches the rest.  Resuming against a journal
    whose job-key set differs raises :class:`JournalError`.
    """
    config = config or RuntimeConfig()
    specs = list(jobs)
    keys = [spec.key for spec in specs]
    if len(set(keys)) != len(keys):
        raise ValueError("job keys must be unique")

    if config.seed is not None:
        children = np.random.SeedSequence(config.seed).spawn(len(specs))
    else:
        children = [None] * len(specs)
    states = [_Job(i, spec, child) for i, (spec, child) in enumerate(zip(specs, children))]

    recovered: dict[str, object] = {}
    recovery = None
    if resume and journal_path is not None:
        from pathlib import Path

        if Path(journal_path).exists():
            recovery = read_journal(journal_path)
            if recovery.job_keys is not None and set(recovery.job_keys) != set(keys):
                raise JournalError(
                    "cannot resume: journal job set does not match submitted jobs "
                    f"(journal has {len(recovery.job_keys)}, submitted {len(keys)})"
                )
            recovered = dict(recovery.completed)

    journal = Journal(journal_path, chaos=config.journal_chaos) if journal_path else None
    started = time.monotonic()
    try:
        supervisor = _Supervisor(states, config, journal)
        if recovery is not None and not recovery.clean:
            supervisor._incident(
                CODE_JOURNAL_RECOVERY,
                detail=(
                    f"dropped {recovery.dropped_lines} torn line(s), "
                    f"rejected {recovery.bad_digests} bad digest(s)"
                ),
            )
        for job in states:
            if job.spec.key in recovered:
                job.status = "done"
                job.result = recovered[job.spec.key]
                job.resumed = True
        supervisor._log({
            "event": "run_start",
            "jobs": keys,
            "seed": config.seed,
            "workers": config.workers,
            "resume": bool(resume),
        })
        if config.workers <= 0:
            _run_serial(states, config, supervisor)
        else:
            supervisor.run()
    finally:
        if journal is not None:
            journal.close()

    outcomes = [
        JobOutcome(
            key=j.spec.key, status=j.status, attempts=j.attempts,
            result=j.result, error=j.error, resumed=j.resumed,
        )
        for j in states
    ]
    return RunReport(
        outcomes=outcomes,
        incidents=supervisor.incidents,
        wall_seconds=time.monotonic() - started,
    )
