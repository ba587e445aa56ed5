"""Electrostatics-based macro placement flow (Section IV, Fig. 6)."""

from .cascade import GroupMap
from .density import FIELD_GROUPS, DensityField, ElectrostaticSystem
from .estimators import (
    CongestionEstimator,
    OracleEstimator,
    PinDensityAwareEstimator,
    RudyEstimator,
)
from .inflation import (
    InflationConfig,
    inflate_all_fields,
    inflate_field,
    lookup_levels,
)
from .legalize import LegalizationResult, legalize, legalize_cells, legalize_macros
from .nesterov import GlobalPlacer, GPConfig, GPState
from .placer import MacroPlacer, PlacementOutcome, PlacerConfig, place_design
from .regions import RegionTension
from .sweep import sample_placer_config, sweep_configs
from .wirelength import (
    hpwl,
    lse_wirelength,
    lse_wirelength_grad,
    wa_wirelength,
    wa_wirelength_grad,
)

__all__ = [
    "GroupMap",
    "CongestionEstimator",
    "RudyEstimator",
    "PinDensityAwareEstimator",
    "OracleEstimator",
    "MacroPlacer",
    "PlacerConfig",
    "PlacementOutcome",
    "place_design",
    "sample_placer_config",
    "sweep_configs",
    "ElectrostaticSystem",
    "DensityField",
    "FIELD_GROUPS",
    "InflationConfig",
    "inflate_field",
    "inflate_all_fields",
    "lookup_levels",
    "LegalizationResult",
    "legalize",
    "legalize_macros",
    "legalize_cells",
    "GlobalPlacer",
    "GPConfig",
    "GPState",
    "RegionTension",
    "hpwl",
    "wa_wirelength",
    "wa_wirelength_grad",
    "lse_wirelength",
    "lse_wirelength_grad",
]
