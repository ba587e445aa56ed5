"""Table-II evaluation harness: place, route, score, tabulate.

Runs each team's flow on each design, scores the result with the
contest metrics (Eqs. 1–3), and formats the same rows Table II reports
(S_score, S_R, T_P&R, S_IR, S_DR per design plus Average and Ratio
rows, where Ratio normalizes every team's average to "Ours").

A full Table-II sweep is hours of placement + routing; one crashing
(team, design) pair must not discard the rest.  :func:`run_table2`
therefore records per-design failures in an error manifest
(:attr:`Table2Result.errors`) and keeps going — averages, ratios and
the formatted table are computed over the designs that survived, and
the manifest is appended so partial results are never mistaken for
complete ones.

Every (team, design) pair is one :mod:`repro.orchestrate` job that
carries its pickled :class:`TeamConfig` (a model-backed "Ours"
included), so serial and parallel sweeps share one path:
``run_table2(parallel=N, seed=..., journal_path=...)`` runs the jobs
in-process (``parallel=0``, the default) or across N supervised worker
processes, with deadlines, one retry, quarantine and a journal for
``resume=True``.  Each job's placer seed is spawned from the root seed
by grid position, so a parallel sweep scores bitwise identical to the
serial one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .._durable import write_durably
from ..netlist import MLCAD2023_SPECS, TABLE2_DESIGNS, generate_design
from ..placement import PlacerConfig, place_design
from ..routing import DetailedRoutingModel, congestion_report, route_design
from .scoring import ContestScore, initial_routing_score
from .teams import TeamConfig, contest_teams

__all__ = [
    "Table2Result",
    "evaluate_team_on_design",
    "run_table2",
    "format_table2",
    "table2_artifact",
    "write_table2_artifact",
]

_COLUMNS = ("S_score", "S_R", "T_P&R", "S_IR", "S_DR")


def evaluate_team_on_design(
    team: TeamConfig,
    design_name: str,
    scale: float = 1.0 / 64.0,
) -> ContestScore:
    """Run one team's full flow on one design and score it."""
    spec = MLCAD2023_SPECS[design_name]
    design = generate_design(spec, scale=scale)
    estimator = team.estimator_factory(design)
    outcome = place_design(
        design, estimator=estimator, config=team.placer_config_factory()
    )

    routing = route_design(design)
    report = congestion_report(routing)
    s_ir = initial_routing_score(report)
    detailed = DetailedRoutingModel().evaluate(routing, report)
    return ContestScore(
        design=design_name,
        team=team.name,
        s_ir=s_ir,
        s_dr=detailed.iterations,
        t_macro_minutes=outcome.t_macro_minutes,
        t_pr_hours=detailed.hours,
    )


def _structured_error(error) -> dict:
    """Normalize an error (string or dict) to type/message/traceback."""
    if isinstance(error, dict):
        return {
            "type": str(error.get("type", "Error")),
            "message": str(error.get("message", "")),
            "traceback": list(error.get("traceback", [])),
        }
    text = str(error)
    head, sep, rest = text.partition(": ")
    if sep and head.isidentifier():
        return {"type": head, "message": rest, "traceback": []}
    return {"type": "Error", "message": text, "traceback": []}


@dataclass
class Table2Result:
    """All scores of a Table-II run, indexed [team][design].

    ``errors`` is the failure manifest: one structured entry
    (exception type, message, traceback tail) per (team, design) pair
    whose flow still raised after its retry, in place of a score.
    ``incidents`` is the orchestration incident log (REPRO5xx events)
    of the sweep, serial or parallel: a failing job logs its retry
    exhaustion and quarantine either way.
    ``complete`` is False whenever the error manifest is non-empty.
    """

    scores: dict[str, dict[str, ContestScore]] = field(default_factory=dict)
    errors: dict[str, dict[str, dict]] = field(default_factory=dict)
    incidents: list[dict] = field(default_factory=list)

    def add(self, score: ContestScore) -> None:
        self.scores.setdefault(score.team, {})[score.design] = score

    def add_error(self, team: str, design: str, error) -> None:
        """Record a failure; ``error`` may be a string or a structured dict."""
        self.errors.setdefault(team, {})[design] = _structured_error(error)

    @property
    def complete(self) -> bool:
        return not self.errors

    def error_manifest(self) -> list[dict[str, object]]:
        """Flat rows of every recorded failure.

        Each row carries the legacy ``error`` display string plus the
        structured ``type`` and ``traceback`` tail, so artifacts keep
        enough context to debug a failure without re-running it.
        """
        return [
            {
                "team": team,
                "design": design,
                "error": f"{info['type']}: {info['message']}",
                "type": info["type"],
                "traceback": info["traceback"],
            }
            for team, by_design in sorted(self.errors.items())
            for design, info in sorted(by_design.items())
        ]

    def averages(self) -> dict[str, dict[str, float]]:
        """Per-team average of every Table-II column."""
        result: dict[str, dict[str, float]] = {}
        for team, by_design in self.scores.items():
            rows = [s.row() for s in by_design.values()]
            if not rows:
                continue
            result[team] = {
                col: float(np.mean([r[col] for r in rows])) for col in _COLUMNS
            }
        return result

    def rows(self) -> list[dict[str, object]]:
        """Flat per-(team, design) rows for CSV/Markdown export."""
        flat: list[dict[str, object]] = []
        for team, by_design in self.scores.items():
            for design, score in sorted(by_design.items()):
                row: dict[str, object] = {"team": team, "design": design}
                row.update(score.row())
                flat.append(row)
        return flat

    def to_csv(self) -> str:
        """Export every score as CSV (via :mod:`repro.analysis.reports`)."""
        from ..analysis import rows_to_csv

        return rows_to_csv(self.rows())

    def to_markdown(self) -> str:
        """Export every score as a Markdown table."""
        from ..analysis import rows_to_markdown

        return rows_to_markdown(self.rows())

    def ratios(self, reference: str = "Ours") -> dict[str, dict[str, float]]:
        """Each team's averages normalized to the reference team's."""
        avgs = self.averages()
        if reference not in avgs:
            raise KeyError(f"no scores recorded for reference team {reference!r}")
        ref = avgs[reference]
        return {
            team: {
                col: (vals[col] / ref[col] if ref[col] else float("nan"))
                for col in _COLUMNS
            }
            for team, vals in avgs.items()
        }


def _reseeded(factory, seed: int) -> PlacerConfig:
    config = factory()
    config.gp = replace(config.gp, seed=seed)
    return config


def _table2_job(
    team: TeamConfig, design_name: str, scale: float, seed_seq=None
) -> dict:
    """One orchestrated (team, design) evaluation.

    A seeded run replaces only the team's placer seed (``gp.seed``)
    with one drawn from the job's private ``seed_seq``.  Returns the
    score as a JSON-safe payload for the journal.
    """
    if seed_seq is not None:
        seed = int(seed_seq.generate_state(1)[0] % np.iinfo(np.int32).max)
        team = replace(
            team,
            placer_config_factory=partial(_reseeded, team.placer_config_factory, seed),
        )
    score = evaluate_team_on_design(team, design_name, scale=scale)
    return {
        "design": score.design,
        "team": score.team,
        "s_ir": int(score.s_ir),
        "s_dr": int(score.s_dr),
        "t_macro_minutes": float(score.t_macro_minutes),
        "t_pr_hours": float(score.t_pr_hours),
    }


def _validate_score_payload(payload) -> None:
    """Reject malformed/corrupted result payloads (REPRO506 on failure)."""
    if not isinstance(payload, dict):
        raise ValueError(f"score payload must be a dict, got {type(payload).__name__}")
    required = ("design", "team", "s_ir", "s_dr", "t_macro_minutes", "t_pr_hours")
    missing = [key for key in required if key not in payload]
    if missing:
        raise ValueError(f"score payload missing fields: {missing}")
    for key in ("s_ir", "s_dr", "t_macro_minutes", "t_pr_hours"):
        value = payload[key]
        if not isinstance(value, (int, float)) or not np.isfinite(value):
            raise ValueError(f"score payload field {key!r} is not finite: {value!r}")


def run_table2(
    teams: list[TeamConfig] | None = None,
    design_names: tuple[str, ...] = TABLE2_DESIGNS,
    scale: float = 1.0 / 64.0,
    verbose: bool = False,
    *,
    parallel: int = 0,
    seed: int | None = None,
    journal_path=None,
    resume: bool = False,
    team_names: tuple[str, ...] | None = None,
    runtime_config=None,
) -> Table2Result:
    """Evaluate every team on every design.

    ``teams`` defaults to :func:`contest_teams` (pass
    ``contest_teams(model=...)`` for a trained "Ours"); ``team_names``
    selects and orders them, and an unknown name raises ``ValueError``
    before any job runs.  Each (team, design) pair is one job under the
    :mod:`repro.orchestrate` supervisor: ``parallel`` worker processes
    (0 = in-process serial), a per-job deadline, one retry, quarantine,
    a durable journal (``journal_path``, ``resume``) and REPRO5xx
    incidents on the returned result.  A pair that still fails lands in
    the error manifest and the sweep goes on.  ``seed`` makes every
    job's placer seed a function of its (team, design) grid position,
    so a parallel sweep is bitwise-identical to ``parallel=0``.
    ``runtime_config`` replaces the default supervision policy (its
    ``workers`` by ``parallel``, its ``seed`` by ``seed`` when given).
    Per-pair rows print (``verbose``) when the sweep ends.
    """
    from ..orchestrate import JobSpec, RuntimeConfig, run_jobs

    teams = contest_teams() if teams is None else list(teams)
    if team_names is not None:
        by_name = {team.name: team for team in teams}
        unknown = [name for name in team_names if name not in by_name]
        if unknown:
            raise ValueError(
                f"run_table2: unknown team(s) {unknown}; known: {list(by_name)}"
            )
        teams = [by_name[name] for name in team_names]
    jobs = [
        JobSpec(
            key=f"{team.name}:{design}",
            fn="repro.contest.evaluate:_table2_job",
            args=(team, design, scale),
        )
        for team in teams
        for design in design_names
    ]
    if runtime_config is None:
        config = RuntimeConfig(
            workers=parallel,
            deadline=3600.0,
            max_attempts=2,
            seed=seed,
            validate=_validate_score_payload,
            verbose=verbose,
        )
    else:
        config = replace(
            runtime_config,
            workers=parallel,
            seed=seed if seed is not None else runtime_config.seed,
            validate=runtime_config.validate or _validate_score_payload,
        )
    report = run_jobs(jobs, config, journal_path=journal_path, resume=resume)

    result = Table2Result()
    result.incidents = [incident.to_dict() for incident in report.incidents]
    for outcome in report.outcomes:
        team, _, design = outcome.key.partition(":")
        if outcome.status == "done":
            result.add(ContestScore(**outcome.result))
            if verbose:
                suffix = " (resumed)" if outcome.resumed else ""
                print(f"{team:<14} {design:<12} {result.scores[team][design].row()}{suffix}")
        else:
            error = outcome.error or {
                "type": "Unknown", "message": outcome.status, "traceback": [],
            }
            result.add_error(team, design, error)
            if verbose:
                print(f"{team:<14} {design:<12} FAILED: {error['message']}")
    return result


def format_table2(result: Table2Result) -> str:
    """Render the Table-II layout: design rows, Average and Ratio rows."""
    teams = list(result.scores)
    designs = sorted(
        {d for by_design in result.scores.values() for d in by_design}
    )
    header = f"{'Design':<12}"
    for team in teams:
        header += f" | {team:^37}"
    sub = f"{'':<12}"
    for _ in teams:
        sub += " | " + " ".join(f"{c:>7}" for c in _COLUMNS)
    lines = [header, sub, "-" * len(sub)]
    for design in designs:
        line = f"{design:<12}"
        for team in teams:
            score = result.scores[team].get(design)
            if score is None:
                line += " | " + " ".join(["     --"] * len(_COLUMNS))
            else:
                row = score.row()
                line += " | " + " ".join(f"{row[c]:>7.2f}" for c in _COLUMNS)
        lines.append(line)
    avgs = result.averages()
    line = f"{'Average':<12}"
    for team in teams:
        if team in avgs:
            line += " | " + " ".join(f"{avgs[team][c]:>7.2f}" for c in _COLUMNS)
        else:
            line += " | " + " ".join(["     --"] * len(_COLUMNS))
    lines.append(line)
    if "Ours" in avgs:
        ratios = result.ratios("Ours")
        line = f"{'Ratio':<12}"
        for team in teams:
            if team in ratios:
                line += " | " + " ".join(
                    f"{ratios[team][c]:>7.2f}" for c in _COLUMNS
                )
            else:
                line += " | " + " ".join(["     --"] * len(_COLUMNS))
        lines.append(line)
    if result.errors:
        lines.append("")
        lines.append(f"partial results — {len(result.error_manifest())} failure(s):")
        for entry in result.error_manifest():
            lines.append(
                f"  {entry['team']:<14} {entry['design']:<12} {entry['error']}"
            )
    return "\n".join(lines)


def table2_artifact(result: Table2Result) -> dict:
    """JSON-safe record of a Table-II run: scores, failures, incidents.

    This is what lands under ``results/`` after a sweep — enough to
    audit a partial run (structured error manifest with traceback
    tails, the REPRO5xx orchestration incident log) without re-running
    anything.
    """
    return {
        "complete": result.complete,
        "scores": result.rows(),
        "averages": result.averages(),
        "error_manifest": result.error_manifest(),
        "incidents": list(result.incidents),
    }


def write_table2_artifact(
    result: Table2Result, path: str | os.PathLike = "results/table2_run.json"
) -> Path:
    """Atomically persist :func:`table2_artifact` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = (json.dumps(table2_artifact(result), indent=2, sort_keys=True) + "\n").encode()
    return write_durably(path, lambda fh: fh.write(blob))
