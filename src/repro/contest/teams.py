"""The Table-II contenders as flow configurations.

Table II compares the paper's flow against the MLCAD 2023 winners on a
common machine.  The winner binaries are not redistributable, so each
team is reproduced as its published *strategy* running on this repo's
shared placement substrate (DESIGN.md §2) — the comparison Table II
makes is precisely between congestion-estimation/inflation strategies:

* **UTDA** [11] — DREAMPlaceFPGA-MP: RUDY-driven inflation, single
  inflation pass (the contest's top analytical method).
* **SEU** — contest co-winner: RUDY-driven with a re-prediction pass
  (two inflation rounds) and a slightly hotter gain.
* **MPKU-Improve** [16] — OpenPARF 3.0 style: multi-electrostatics with
  stronger spreading effort and a pin-density-augmented analytical
  estimate; fastest T_P&R in the paper.
* **Ours** — the paper's flow: the trained MFA+transformer model
  replaces RUDY as the congestion estimator (Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..models import CongestionModel, ModelEstimator
from ..netlist import Design
from ..placement import (
    CongestionEstimator,
    GPConfig,
    PinDensityAwareEstimator,
    PlacerConfig,
    RudyEstimator,
)

__all__ = ["TeamConfig", "TEAM_NAMES", "contest_teams"]

TEAM_NAMES = ("UTDA", "SEU", "MPKU-Improve", "Ours")


@dataclass
class TeamConfig:
    """One Table-II contender: estimator + flow configuration.

    The four teams :func:`contest_teams` builds hold ``functools.partial``
    objects over module-level functions (and, for a model-backed "Ours",
    the model itself), so a team pickles and travels to a worker process
    as plain data.
    """

    name: str
    description: str
    estimator_factory: Callable[[Design], CongestionEstimator]
    placer_config_factory: Callable[[], PlacerConfig]


def _rudy(design: Design, gain: float) -> RudyEstimator:
    return RudyEstimator(grid=design.device.tile_cols, gain=gain)


def _pin_density(design: Design, **kwargs) -> PinDensityAwareEstimator:
    return PinDensityAwareEstimator(grid=design.device.tile_cols, **kwargs)


def _model(design: Design, model: CongestionModel, model_grid: int) -> ModelEstimator:
    return ModelEstimator(
        model=model, model_grid=model_grid, out_grid=design.device.tile_cols
    )


def _placer(
    seed: int, max_iters: int = 400, lr: float = 0.45, **kwargs
) -> PlacerConfig:
    gp = GPConfig(bins=32, max_iters=max_iters, lr=lr, seed=seed)
    return PlacerConfig(gp=gp, **kwargs)


def contest_teams(
    model: CongestionModel | None = None,
    model_grid: int = 64,
    seed: int = 0,
) -> list[TeamConfig]:
    """Build the four Table-II teams.

    ``model`` is the trained congestion predictor used by "Ours"; when
    omitted, "Ours" falls back to the pin-density-aware analytical
    estimate so the harness still runs (clearly weaker — train a model
    for the real comparison).
    """
    if model is not None:
        ours_estimator = partial(_model, model=model, model_grid=model_grid)
    else:
        ours_estimator = partial(_pin_density, gain=0.9, pin_weight=0.35)
    return [
        TeamConfig(
            name="UTDA",
            description="RUDY-driven inflation, single pass [11]",
            estimator_factory=partial(_rudy, gain=0.85),
            placer_config_factory=partial(_placer, seed, inflation_rounds=1),
        ),
        TeamConfig(
            name="SEU",
            description="RUDY-driven inflation, two passes (contest co-winner)",
            estimator_factory=partial(_rudy, gain=1.05),
            placer_config_factory=partial(_placer, seed, inflation_rounds=2),
        ),
        TeamConfig(
            name="MPKU-Improve",
            description="multi-electrostatics + pin-density-aware estimate [16]",
            estimator_factory=_pin_density,
            placer_config_factory=partial(
                _placer, seed, max_iters=500, lr=0.40,
                inflation_rounds=2, stage2_iters=180,
            ),
        ),
        TeamConfig(
            name="Ours",
            description="MFA+transformer model-driven inflation (Section IV)",
            estimator_factory=ours_estimator,
            placer_config_factory=partial(_placer, seed, inflation_rounds=2),
        ),
    ]
