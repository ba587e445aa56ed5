"""Fault-tolerant parallel execution runtime (``REPRO5xx``).

A process-pool supervisor (:mod:`repro.orchestrate.runtime`) that fans
independent jobs — one ``(team, design)`` contest evaluation, one
training-data shard — across worker processes with per-job deadlines, a
heartbeat watchdog, bounded retries with jittered backoff, poison-job
quarantine and worker restart.  Per-job RNG streams are spawned from
one root :class:`numpy.random.SeedSequence` by submission index, so a
parallel run is bitwise-identical to the serial reference.  Every job
transition lands in a durable fsync'd JSONL journal
(:mod:`repro.orchestrate.journal`) from which an interrupted run
resumes exactly; supervision events surface as ``REPRO501``–``507``
incidents registered with :mod:`repro.diagnostics`.

The matching failure-injection side lives in
:mod:`repro.resilience.faults` (``ChaosConfig``, ``JournalChaos``): a
seeded process-level chaos layer the test suite uses to prove each
recovery path.  See ``docs/ORCHESTRATION.md``.
"""

from ..diagnostics import codes_for
from .journal import Journal, JournalError, JournalRecovery, payload_digest, read_journal
from .runtime import (
    CODE_DEADLINE,
    CODE_JOURNAL_RECOVERY,
    CODE_PAYLOAD_INVALID,
    CODE_QUARANTINE,
    CODE_RETRY_EXHAUSTED,
    CODE_UNPICKLABLE,
    CODE_WORKER_CRASH,
    JobOutcome,
    JobSpec,
    OrchestrationIncident,
    RunReport,
    RuntimeConfig,
    run_jobs,
)

#: ``{code: message}`` view of the orchestration incident codes.
ORCHESTRATE_RULES = codes_for("orchestrate")

__all__ = [
    "CODE_WORKER_CRASH",
    "CODE_DEADLINE",
    "CODE_QUARANTINE",
    "CODE_JOURNAL_RECOVERY",
    "CODE_RETRY_EXHAUSTED",
    "CODE_PAYLOAD_INVALID",
    "CODE_UNPICKLABLE",
    "ORCHESTRATE_RULES",
    "Journal",
    "JournalError",
    "JournalRecovery",
    "payload_digest",
    "read_journal",
    "JobSpec",
    "RuntimeConfig",
    "OrchestrationIncident",
    "JobOutcome",
    "RunReport",
    "run_jobs",
]
