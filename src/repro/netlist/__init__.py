"""Netlist containers and the synthetic MLCAD-2023-like benchmark suite."""

from .design import Design, Instance, Net
from .generator import (
    MLCAD2023_SPECS,
    TABLE1_DESIGNS,
    TABLE2_DESIGNS,
    DesignSpec,
    generate_design,
    mlcad2023_suite,
)
from .stats import design_row, format_stats_table

__all__ = [
    "Design",
    "Instance",
    "Net",
    "DesignSpec",
    "MLCAD2023_SPECS",
    "TABLE1_DESIGNS",
    "TABLE2_DESIGNS",
    "generate_design",
    "mlcad2023_suite",
    "design_row",
    "format_stats_table",
]
