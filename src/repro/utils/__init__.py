"""Shared utilities: argument checks, seeding, timing, and result tables."""

from .checks import check_count
from .seed import seeded_rng, set_global_seed
from .timer import LapStats, Timer, lap_statistics
from .tables import format_cell, format_table, print_table

__all__ = ["check_count", "seeded_rng", "set_global_seed", "Timer", "LapStats",
           "lap_statistics", "format_cell", "format_table", "print_table"]
