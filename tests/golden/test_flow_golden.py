"""Golden run: the Table II flow's outputs, pinned bit for bit.

``flow_golden.json`` holds, per (team, design) job of a seeded
``run_table2`` sweep, every output the flow's hot paths can move: the
scores, the congestion-level histograms, the legalized HPWL, the GP step
count, the router's negotiation iterations and connection count, and
SHA-256 digests of the four routed usage arrays and the final x/y.  Any
behaviour change in placement, routing or scoring shows as a one-line
diff here.

The sweep runs once supervised-serial (``parallel=0``) and once across
two worker processes; both must match the file exactly.  Regenerate the
file only for an intended behaviour change, from the repository root::

    PYTHONPATH=src python -m tests.golden.test_flow_golden
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).with_name("flow_golden.json")
DESIGNS = ("Design_116", "Design_190")
SCALE = 1.0 / 256.0
SEED = 17


def _sha256(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    head = f"{arr.dtype.str}{arr.shape}".encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()


def _histogram(levels: np.ndarray) -> list[int]:
    from repro.routing.congestion import NUM_LEVELS

    return np.bincount(levels.ravel(), minlength=NUM_LEVELS).tolist()


def _install_probes(setattr_, out_dir: Path) -> None:
    """Record each job's flow outputs to ``out_dir`` (one file per job).

    The probes wrap names in ``repro.contest.evaluate`` before any worker
    forks, so serial and forked jobs alike write their record.
    """
    import repro.contest.evaluate as evaluate
    from repro.placement import nesterov

    run_job = evaluate.evaluate_team_on_design
    place, route, report_of = (
        evaluate.place_design, evaluate.route_design, evaluate.congestion_report
    )
    step = nesterov.GlobalPlacer.step
    seen: dict = {}

    def counted_step(self):
        seen["gp_steps"] += 1
        return step(self)

    def keep(name, fn):
        def probe(*args, **kwargs):
            seen[name] = fn(*args, **kwargs)
            return seen[name]

        return probe

    def recorded_job(team, design_name, *args, **kwargs):
        seen.clear()
        seen["gp_steps"] = 0
        score = run_job(team, design_name, *args, **kwargs)
        outcome, routing, report = seen["outcome"], seen["routing"], seen["report"]
        record = {
            "s_ir": int(score.s_ir),
            "s_dr": int(score.s_dr),
            "short_levels": _histogram(report.short_levels),
            "global_levels": _histogram(report.global_levels),
            "level_map": _histogram(report.level_map),
            "hpwl": repr(float(outcome.hpwl)),
            "gp_steps": seen["gp_steps"],
            "negotiation_iters": int(routing.iterations),
            "num_connections": int(routing.num_connections),
            "sha256": {
                "h_short": _sha256(routing.h_short),
                "v_short": _sha256(routing.v_short),
                "h_global": _sha256(routing.h_global),
                "v_global": _sha256(routing.v_global),
                "x": _sha256(outcome.x),
                "y": _sha256(outcome.y),
            },
        }
        path = out_dir / f"{team.name}@{design_name}.json"
        path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
        return score

    setattr_(evaluate, "evaluate_team_on_design", recorded_job)
    setattr_(evaluate, "place_design", keep("outcome", place))
    setattr_(evaluate, "route_design", keep("routing", route))
    setattr_(evaluate, "congestion_report", keep("report", report_of))
    setattr_(nesterov.GlobalPlacer, "step", counted_step)


def golden_run(parallel: int, setattr_, out_dir: Path) -> dict:
    """Run the seeded sweep with probes installed; return the golden dict."""
    from repro.contest.evaluate import run_table2

    _install_probes(setattr_, out_dir)
    result = run_table2(
        design_names=DESIGNS, scale=SCALE, parallel=parallel, seed=SEED
    )
    assert not result.errors, result.errors
    jobs = {}
    for path in sorted(out_dir.glob("*.json")):
        team, _, design = path.stem.partition("@")
        record = json.loads(path.read_text(encoding="utf-8"))
        score = result.scores[team][design]
        assert (record["s_ir"], record["s_dr"]) == (score.s_ir, score.s_dr)
        jobs[f"{team}:{design}"] = record
    return {
        "config": {"designs": list(DESIGNS), "scale": SCALE, "seed": SEED},
        "numpy": np.__version__,
        "machine": platform.machine(),
        "jobs": jobs,
    }


@pytest.mark.parametrize("parallel", [0, 2])
def test_flow_matches_golden(parallel, monkeypatch, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_run(parallel, monkeypatch.setattr, tmp_path)
    assert sorted(got["jobs"]) == sorted(golden["jobs"])
    where = (
        f"golden made with numpy {golden['numpy']} on {golden['machine']}; "
        f"this run numpy {got['numpy']} on {got['machine']}"
    )
    for key, want in golden["jobs"].items():
        have = got["jobs"][key]
        diff = {k: (want[k], have.get(k)) for k in want if have.get(k) != want[k]}
        assert not diff, f"{key} (parallel={parallel}) differs: {diff}; {where}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = golden_run(0, setattr, Path(tmp))
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(data['jobs'])} jobs)")
