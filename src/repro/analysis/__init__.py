"""Experiment runners and reporting for the paper's tables and figures."""

from . import paper_data
from .experiments import (
    NO_OVERSUB,
    OVERSUB_125,
    SeriesResult,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6_7,
    figure8,
    render_figure2,
    render_figure3,
    table1,
)
from .checkpoint import CheckpointJournal, cell_key
from .parallel import (
    GridCell,
    GridExecutionError,
    GridOptions,
    cell_config,
    default_jobs,
    run_cell,
    run_grid,
)
from .sweeps import (
    DEFAULT_FAULT_RATES,
    DEFAULT_LEVELS,
    FaultSweepResult,
    SweepResult,
    fault_rate_sweep,
    oversubscription_sweep,
)
from .tables import ascii_bar_chart, comparison_table, format_table

__all__ = [
    "CheckpointJournal",
    "DEFAULT_FAULT_RATES",
    "DEFAULT_LEVELS",
    "FaultSweepResult",
    "GridCell",
    "GridExecutionError",
    "GridOptions",
    "cell_config",
    "cell_key",
    "default_jobs",
    "fault_rate_sweep",
    "run_cell",
    "run_grid",
    "NO_OVERSUB",
    "OVERSUB_125",
    "SeriesResult",
    "SweepResult",
    "ascii_bar_chart",
    "comparison_table",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6_7",
    "figure8",
    "format_table",
    "paper_data",
    "render_figure2",
    "render_figure3",
    "oversubscription_sweep",
    "table1",
]
