"""Supervisor semantics: retries, quarantine, watchdogs, resume.

Worker-pool tests use small deadlines/backoffs so each scenario runs in
well under a second of supervised time; every job function lives in
``tests.orchestrate.jobs`` (workers resolve dotted references).
"""

import numpy as np
import pytest

from repro.orchestrate import (
    CODE_DEADLINE,
    CODE_JOURNAL_RECOVERY,
    CODE_PAYLOAD_INVALID,
    CODE_QUARANTINE,
    CODE_RETRY_EXHAUSTED,
    CODE_UNPICKLABLE,
    JobSpec,
    JournalError,
    RuntimeConfig,
    read_journal,
    run_jobs,
)

JOBS = "tests.orchestrate.jobs"


def _fast(**overrides) -> RuntimeConfig:
    defaults = dict(
        workers=2, deadline=10.0, heartbeat_interval=0.05,
        heartbeat_grace=10.0, max_attempts=3, backoff_base=0.01,
        backoff_max=0.05, restart_backoff=0.01, run_timeout=60.0,
    )
    defaults.update(overrides)
    return RuntimeConfig(**defaults)


class TestHappyPath:
    def test_serial_executes_in_submission_order(self):
        jobs = [
            JobSpec(key=f"j{i}", fn=f"{JOBS}:echo", args=(i,)) for i in range(4)
        ]
        report = run_jobs(jobs, _fast(workers=0))
        assert report.complete
        assert [o.key for o in report.outcomes] == ["j0", "j1", "j2", "j3"]
        assert report.results() == {"j0": 0, "j1": 1, "j2": 2, "j3": 3}

    def test_parallel_pool_returns_every_result(self):
        jobs = [
            JobSpec(key=f"j{i}", fn=f"{JOBS}:echo", args=(i,)) for i in range(8)
        ]
        report = run_jobs(jobs, _fast(workers=3))
        assert report.complete
        assert report.results() == {f"j{i}": i for i in range(8)}
        assert report.incidents == []

    def test_duplicate_job_keys_rejected(self):
        jobs = [JobSpec(key="same", fn=f"{JOBS}:echo", args=(1,))] * 2
        with pytest.raises(ValueError, match="unique"):
            run_jobs(jobs, _fast(workers=0))


class TestSeeding:
    def test_jobs_get_independent_spawned_streams(self):
        jobs = [JobSpec(key=f"j{i}", fn=f"{JOBS}:rng_draw") for i in range(3)]
        report = run_jobs(jobs, _fast(workers=0, seed=42))
        draws = list(report.results().values())
        assert len({tuple(d) for d in draws}) == 3  # streams differ
        # And they are exactly the SeedSequence children by index.
        children = np.random.SeedSequence(42).spawn(3)
        for child, drawn in zip(children, draws):
            expected = np.random.default_rng(child).random(4)
            assert list(expected) == drawn

    def test_serial_and_parallel_draws_are_bitwise_identical(self):
        jobs = [JobSpec(key=f"j{i}", fn=f"{JOBS}:rng_draw") for i in range(6)]
        serial = run_jobs(jobs, _fast(workers=0, seed=9)).results()
        parallel = run_jobs(jobs, _fast(workers=3, seed=9)).results()
        assert serial == parallel

    def test_unseeded_run_passes_no_seed_seq(self):
        report = run_jobs(
            [JobSpec(key="a", fn=f"{JOBS}:echo", args=("x",))], _fast(workers=0)
        )
        assert report.results() == {"a": "x"}


class TestRetries:
    def test_flaky_job_succeeds_within_budget(self, tmp_path):
        marker = tmp_path / "attempts"
        jobs = [
            JobSpec(
                key="flaky", fn=f"{JOBS}:flaky",
                kwargs={"marker": str(marker), "fail_times": 2},
            )
        ]
        report = run_jobs(jobs, _fast(max_attempts=3))
        assert report.complete
        assert report.outcomes[0].attempts == 3
        assert report.results()["flaky"] == {"attempts": 3}

    def test_poison_job_is_quarantined_with_incidents(self):
        jobs = [
            JobSpec(key="bad", fn=f"{JOBS}:always_fail"),
            JobSpec(key="good", fn=f"{JOBS}:echo", args=(1,)),
        ]
        report = run_jobs(jobs, _fast(max_attempts=2))
        assert not report.complete
        bad = report.outcomes[0]
        assert bad.status == "quarantined"
        assert bad.attempts == 2
        assert bad.error["type"] == "ValueError"
        assert any("never succeeds" in line for line in bad.error["traceback"])
        codes = [i.code for i in report.incidents]
        assert CODE_RETRY_EXHAUSTED in codes
        assert CODE_QUARANTINE in codes
        # The healthy job still completed.
        assert report.results() == {"good": 1}

    def test_serial_retry_semantics_match(self, tmp_path):
        marker = tmp_path / "attempts"
        jobs = [
            JobSpec(
                key="flaky", fn=f"{JOBS}:flaky",
                kwargs={"marker": str(marker), "fail_times": 1},
            )
        ]
        report = run_jobs(jobs, _fast(workers=0, max_attempts=2))
        assert report.complete
        assert report.outcomes[0].attempts == 2

    def test_unpicklable_job_fails_alone(self, tmp_path):
        """A job whose arguments do not pickle cannot reach a worker: it
        fails once, without retry, and the pool finishes the rest."""
        journal = tmp_path / "run.jsonl"
        jobs = [
            JobSpec(key="j0", fn=f"{JOBS}:echo", args=(0,)),
            JobSpec(key="lambda", fn=f"{JOBS}:echo", args=(lambda: 1,)),
            JobSpec(key="j2", fn=f"{JOBS}:echo", args=(2,)),
            JobSpec(key="j3", fn=f"{JOBS}:echo", args=(3,)),
        ]
        report = run_jobs(jobs, _fast(workers=2), journal_path=journal)
        bad = report.outcomes[1]
        assert (bad.status, bad.attempts) == ("failed", 1)
        assert bad.error["type"] in ("PicklingError", "AttributeError")
        assert report.results() == {"j0": 0, "j2": 2, "j3": 3}
        (incident,) = report.incidents
        assert (incident.code, incident.job) == (CODE_UNPICKLABLE, "lambda")
        assert incident.detail.startswith(bad.error["type"] + ": ")
        assert "lambda" in incident.detail
        assert read_journal(journal).completed.keys() == {"j0", "j2", "j3"}


class TestWatchdogs:
    def test_deadline_kills_hung_worker_and_retries(self, tmp_path):
        # First job sleeps past the deadline; with attempts left it is
        # retried (the sleep is unconditional, so it quarantines) while
        # the short job completes.
        jobs = [
            JobSpec(key="hang", fn=f"{JOBS}:slow", args=(30.0,)),
            JobSpec(key="quick", fn=f"{JOBS}:echo", args=("ok",)),
        ]
        report = run_jobs(
            jobs, _fast(deadline=0.4, max_attempts=1, run_timeout=30.0)
        )
        assert report.outcomes[0].status == "quarantined"
        assert report.results() == {"quick": "ok"}
        assert any(i.code == CODE_DEADLINE for i in report.incidents)

    def test_validation_failure_is_discarded_and_retried(self):
        def validate(payload):
            if payload != "expected":
                raise ValueError(f"bad payload {payload!r}")

        jobs = [JobSpec(key="a", fn=f"{JOBS}:echo", args=("unexpected",))]
        report = run_jobs(jobs, _fast(max_attempts=2, validate=validate))
        assert not report.complete
        assert report.outcomes[0].status == "quarantined"
        assert [i.code for i in report.incidents].count(CODE_PAYLOAD_INVALID) == 2


class TestJournalResume:
    def test_completed_jobs_are_skipped_on_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = tmp_path / "effects.log"
        jobs = [
            JobSpec(
                key=f"j{i}", fn=f"{JOBS}:record_effect",
                args=(str(log), f"j{i}"),
            )
            for i in range(4)
        ]
        first = run_jobs(jobs, _fast(workers=0), journal_path=path)
        assert first.complete
        resumed = run_jobs(jobs, _fast(workers=2), journal_path=path, resume=True)
        assert resumed.complete
        assert resumed.resumed == 4
        assert all(o.attempts == 0 for o in resumed.outcomes)
        # No job ran twice: the effect log still has exactly 4 entries.
        assert len(log.read_text().splitlines()) == 4

    def test_quarantined_job_gets_fresh_budget_on_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        marker = tmp_path / "attempts"
        jobs = [
            JobSpec(key="ok", fn=f"{JOBS}:echo", args=(1,)),
            JobSpec(
                key="flaky", fn=f"{JOBS}:flaky",
                kwargs={"marker": str(marker), "fail_times": 1},
            ),
        ]
        first = run_jobs(jobs, _fast(workers=0, max_attempts=1), journal_path=path)
        assert not first.complete
        assert first.outcomes[1].status == "quarantined"
        # Resume: the completed job is skipped, the quarantined one is
        # re-dispatched with a fresh retry budget and now succeeds.
        resumed = run_jobs(
            jobs, _fast(workers=0, max_attempts=1), journal_path=path, resume=True
        )
        assert resumed.complete
        assert resumed.outcomes[0].resumed
        assert resumed.results()["flaky"] == {"attempts": 2}

    def test_resume_with_different_job_set_is_refused(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_jobs(
            [JobSpec(key="a", fn=f"{JOBS}:echo", args=(1,))],
            _fast(workers=0), journal_path=path,
        )
        with pytest.raises(JournalError, match="job set"):
            run_jobs(
                [JobSpec(key="b", fn=f"{JOBS}:echo", args=(2,))],
                _fast(workers=0), journal_path=path, resume=True,
            )

    def test_resume_from_missing_journal_is_a_fresh_run(self, tmp_path):
        path = tmp_path / "never-written.jsonl"
        report = run_jobs(
            [JobSpec(key="a", fn=f"{JOBS}:echo", args=(1,))],
            _fast(workers=0), journal_path=path, resume=True,
        )
        assert report.complete and report.resumed == 0

    def test_torn_journal_surfaces_recovery_incident(self, tmp_path):
        path = tmp_path / "run.jsonl"
        jobs = [JobSpec(key="a", fn=f"{JOBS}:echo", args=(1,))]
        run_jobs(jobs, _fast(workers=0), journal_path=path)
        with open(path, "a") as fh:
            fh.write('{"event": "completed", "job":')  # torn tail
        report = run_jobs(jobs, _fast(workers=0), journal_path=path, resume=True)
        assert report.complete
        assert any(i.code == CODE_JOURNAL_RECOVERY for i in report.incidents)

    def test_journal_records_full_lifecycle(self, tmp_path):
        path = tmp_path / "run.jsonl"
        jobs = [JobSpec(key="a", fn=f"{JOBS}:echo", args=({"v": 1},))]
        run_jobs(jobs, _fast(workers=0, seed=3), journal_path=path)
        recovery = read_journal(path)
        events = [r["event"] for r in recovery.records]
        assert events == ["run_start", "dispatched", "completed"]
        assert recovery.seed == 3
        assert recovery.completed == {"a": {"v": 1}}


class TestTermination:
    def test_run_timeout_is_a_hard_backstop(self):
        jobs = [JobSpec(key="hang", fn=f"{JOBS}:slow", args=(60.0,))]
        report = run_jobs(
            jobs,
            _fast(deadline=30.0, heartbeat_grace=30.0, run_timeout=0.5),
        )
        assert report.outcomes[0].status == "failed"
        assert report.outcomes[0].error["type"] == "RunTimeout"
        assert report.wall_seconds < 20.0
