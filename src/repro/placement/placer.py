"""The routability-driven FPGA macro placement flow (Section IV, Fig. 6).

Steps, exactly as the paper's flow chart:

1. **Cascade handling** — macros under one cascade shape constraint are
   merged into a single cluster (via :class:`~repro.placement.cascade.
   GroupMap`, built into the global placer).
2. **Region-aware global placement (stage 1)** — electrostatic GP with
   the region tension term, run until the overflow gates are met
   (``Overflow_t < 0.25`` for DSP/BRAM/URAM, ``< 0.15`` for LUT/FF).
3. **Congestion prediction + instance inflation** — the pluggable
   estimator produces a congestion level map; Eqs. 11–13 inflate
   instances in grids with level > 3.
4. **Stage-2 global placement** — continue with inflated areas so the
   density force spreads the congested neighbourhoods.
5. **Macro legalization** — cascades and macros snap to legal sites,
   then cells are assigned to CLB columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..netlist import Design
from ..resilience import Incident, validate_level_map
from .estimators import CongestionEstimator, RudyEstimator
from .inflation import InflationConfig, inflate_all_fields
from .legalize import LegalizationResult, legalize
from .nesterov import GlobalPlacer, GPConfig

__all__ = ["PlacerConfig", "PlacementOutcome", "MacroPlacer", "place_design"]


@dataclass
class PlacerConfig:
    """Configuration of the end-to-end flow."""

    gp: GPConfig = field(default_factory=GPConfig)
    inflation: InflationConfig = field(default_factory=InflationConfig)
    inflation_rounds: int = 2
    stage1_iters: int = 400
    stage2_iters: int = 150
    # Graceful degradation: when the configured estimator raises or
    # returns an invalid level map (wrong rank, NaN, out of the 0-7
    # range), fall back to the analytical RUDY estimate for that round
    # and log an Incident instead of killing the whole flow.
    estimator_fallback: bool = True


@dataclass
class PlacementOutcome:
    """Everything downstream evaluation needs about one placement run."""

    design: Design
    x: np.ndarray
    y: np.ndarray
    hpwl: float
    t_macro_minutes: float
    legalization: LegalizationResult
    stage1_overflow: dict[str, float]
    final_overflow: dict[str, float]
    inflation_stats: list[dict[str, dict[str, float]]]
    # Faults survived during the run (estimator fallbacks etc.); empty
    # means the flow ran clean.
    incidents: list[Incident] = field(default_factory=list)

    @property
    def legal(self) -> bool:
        return self.legalization.legal

    @property
    def degraded(self) -> bool:
        """Did any stage run on a fallback path?"""
        return bool(self.incidents)


class MacroPlacer:
    """Runs the Fig. 6 flow with a pluggable congestion estimator."""

    def __init__(
        self,
        design: Design,
        estimator: CongestionEstimator | None = None,
        config: PlacerConfig | None = None,
    ) -> None:
        self.design = design
        self.config = config or PlacerConfig()
        self.estimator = estimator or RudyEstimator(
            grid=design.device.tile_cols
        )
        self.placer = GlobalPlacer(design, self.config.gp)

    def _predict_levels(
        self,
        x: np.ndarray,
        y: np.ndarray,
        round_index: int,
        incidents: list[Incident],
    ) -> np.ndarray:
        """One validated congestion prediction, degrading to RUDY on fault.

        A crashing or garbage-emitting estimator must not kill a
        placement that is minutes or hours in: the analytical RUDY
        estimate (the contest winners' approach) is always computable
        from the current positions, so it is the universal fallback.
        """
        stage = f"estimate/round{round_index + 1}"
        try:
            raw = np.asarray(self.estimator(self.design, x, y))
            return np.asarray(validate_level_map(raw), dtype=np.float64)
        except Exception as exc:
            if not self.config.estimator_fallback:
                raise
            incidents.append(
                Incident(
                    stage=stage,
                    error=f"{type(exc).__name__}: {exc}",
                    action="fallback:rudy",
                )
            )
        fallback = RudyEstimator(grid=self.design.device.tile_cols)
        return np.asarray(
            validate_level_map(fallback(self.design, x, y)), dtype=np.float64
        )

    def run(self) -> PlacementOutcome:
        cfg = self.config
        start = time.perf_counter()
        incidents: list[Incident] = []

        # Stage 1: region-aware global placement until the gates are met.
        self.placer.run(max_iters=cfg.stage1_iters)
        stage1_overflow = self.placer.overflow()

        # Congestion prediction + inflation rounds, each followed by
        # further spreading (stage 2).
        inflation_stats: list[dict[str, dict[str, float]]] = []
        for round_index in range(cfg.inflation_rounds):
            x, y = self.placer.positions()
            level_map = self._predict_levels(x, y, round_index, incidents)
            stats = inflate_all_fields(
                self.placer.system, level_map, x, y, cfg.inflation
            )
            inflation_stats.append(stats)
            self.placer.run(max_iters=cfg.stage2_iters)

        self.placer.commit()
        final_overflow = self.placer.overflow()

        # Macro (and rough cell) legalization.
        x, y = self.placer.positions()
        legalization = legalize(self.design, x, y)
        self.design.set_placement(legalization.x, legalization.y)

        elapsed_min = (time.perf_counter() - start) / 60.0
        return PlacementOutcome(
            design=self.design,
            x=legalization.x,
            y=legalization.y,
            hpwl=self.design.hpwl(),
            t_macro_minutes=elapsed_min,
            legalization=legalization,
            stage1_overflow=stage1_overflow,
            final_overflow=final_overflow,
            inflation_stats=inflation_stats,
            incidents=incidents,
        )


def place_design(
    design: Design,
    estimator: CongestionEstimator | None = None,
    config: PlacerConfig | None = None,
) -> PlacementOutcome:
    """Place ``design`` with the Fig. 6 flow."""
    return MacroPlacer(design, estimator, config).run()
