"""The chaos invariant (ISSUE acceptance), on the real Table-II sweep.

Under every injected fault mode a ``run_table2(parallel=N)`` run must
terminate and yield either (a) complete scores bitwise-identical to an
unfaulted serial run, or (b) a valid partial manifest plus a journal
from which ``resume=True`` finishes the run — again bitwise-identical.
"""

import pytest

from repro.contest import run_table2, table2_artifact
from repro.orchestrate import (
    CODE_JOURNAL_RECOVERY,
    RuntimeConfig,
    read_journal,
)
from repro.resilience import CHAOS_MODES, ChaosConfig, ChaosCrash, JournalChaos

DESIGNS = ("Design_116",)
TEAMS = ("UTDA",)
SCALE = 1.0 / 256.0
SEED = 23

#: Fault-mode → incident prefix the chaos run must log.
_INCIDENT_OF = {
    "kill": "REPRO501",
    "hang": "REPRO502",
    "freeze": "REPRO502",
    "corrupt": "REPRO506",
}


def _runtime(**overrides) -> RuntimeConfig:
    # A (team, design) job at SCALE takes ~1s; the deadline leaves 5x
    # headroom while keeping the hang-mode wait short.
    defaults = dict(
        deadline=5.0, heartbeat_interval=0.1, heartbeat_grace=2.0,
        max_attempts=2, backoff_base=0.01, backoff_max=0.05,
        restart_backoff=0.01, run_timeout=120.0,
    )
    defaults.update(overrides)
    return RuntimeConfig(**defaults)


def _table2(**overrides):
    kwargs = dict(
        design_names=DESIGNS, team_names=TEAMS, scale=SCALE, seed=SEED,
    )
    kwargs.update(overrides)
    return run_table2(**kwargs)


def _scores(result):
    # t_macro_minutes is wall-clock time, so it is excluded from parity.
    return {
        (team, design): (score.s_ir, score.s_dr, score.t_pr_hours)
        for team, by_design in result.scores.items()
        for design, score in by_design.items()
    }


@pytest.fixture(scope="module")
def reference():
    """The unfaulted serial run every chaos run must reproduce."""
    result = _table2(parallel=0)
    assert result.complete
    return result


class TestChaosInvariant:
    @pytest.mark.parametrize("mode", CHAOS_MODES)
    def test_fault_mode_recovers_to_identical_scores(
        self, mode, reference, tmp_path
    ):
        # Probability 1.0 on the first attempt of every job: the fault
        # definitely fires, and the retry (attempt 2 > max_attempt)
        # definitely runs clean — so the run completes by itself.
        chaos = ChaosConfig(seed=1, hang_seconds=30.0, **{mode: 1.0})
        result = _table2(
            parallel=2,
            journal_path=tmp_path / "run.jsonl",
            runtime_config=_runtime(chaos=chaos),
        )
        assert result.complete
        assert _scores(result) == _scores(reference)
        codes = [incident["code"] for incident in result.incidents]
        assert _INCIDENT_OF[mode] in codes

    def test_exhausted_retries_leave_a_resumable_journal(self, reference, tmp_path):
        # With no retry budget the killed job is quarantined: the run
        # still terminates, with a valid partial manifest and a journal
        # from which an unfaulted resume finishes the sweep.
        path = tmp_path / "run.jsonl"
        chaos = ChaosConfig(seed=1, kill=1.0)
        partial = _table2(
            parallel=2, journal_path=path,
            runtime_config=_runtime(chaos=chaos, max_attempts=1),
        )
        assert not partial.complete
        manifest = partial.error_manifest()
        assert [(e["team"], e["design"]) for e in manifest] == [
            ("UTDA", "Design_116")
        ]
        assert manifest[0]["type"]  # structured, not just a string

        # ...and the artifact of the partial run is well-formed.
        artifact = table2_artifact(partial)
        assert artifact["complete"] is False
        assert artifact["incidents"]

        resumed = _table2(
            parallel=2, journal_path=path, resume=True,
            runtime_config=_runtime(),
        )
        assert resumed.complete
        assert _scores(resumed) == _scores(reference)

    def test_torn_journal_append_is_recovered_on_resume(self, reference, tmp_path):
        # Crash the *supervisor* mid-journal-append (soft mode raises so
        # the test can observe it), then resume over the torn journal.
        path = tmp_path / "run.jsonl"
        with pytest.raises(ChaosCrash):
            _table2(
                parallel=2, journal_path=path,
                runtime_config=_runtime(journal_chaos=JournalChaos(truncate_at=2)),
            )
        assert not read_journal(path).clean
        resumed = _table2(
            parallel=2, journal_path=path, resume=True,
            runtime_config=_runtime(),
        )
        assert resumed.complete
        assert _scores(resumed) == _scores(reference)
        codes = [incident["code"] for incident in resumed.incidents]
        assert CODE_JOURNAL_RECOVERY in codes
