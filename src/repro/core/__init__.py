"""The paper's primary contribution: Algorithm MemExplore and its metrics.

Workflow: build (or pick) a :class:`~repro.kernels.base.Kernel`, hand it to
:class:`MemExplorer`, sweep :func:`design_space`, then select with
:func:`select_configuration` or inspect the :func:`pareto_front`.  Whole
programs (Section 5) aggregate kernels through :class:`CompositeProgram`.
"""

from repro.core.analytic import (
    AnalyticExplorer,
    analytic_miss_rate,
    analytic_misses,
)
from repro.core.config import (
    CacheConfig,
    config_sort_key,
    design_space,
    powers_of_two,
)
from repro.core.cycles import (
    CYCLES_PER_HIT,
    CYCLES_PER_MISS,
    cycles_per_hit,
    cycles_per_miss,
    processor_cycles,
)
from repro.core.metrics import PerformanceEstimate
from repro.core.explorer import ExplorationResult, MemExplorer, evaluate_trace
from repro.core.selection import Selection, SelectionError, select_configuration
from repro.core.pareto import dominated_by_any, pareto_front, tradeoff_range
from repro.core.composite import CompositeProgram, KernelContribution
from repro.core.report import ConfigDatasheet, datasheet, render_datasheet
from repro.core.sensitivity import SensitivityRow, tornado
from repro.core.serialize import (
    load_results_csv,
    load_results_json,
    save_results_csv,
    save_results_json,
)

__all__ = [
    "AnalyticExplorer",
    "CYCLES_PER_HIT",
    "CYCLES_PER_MISS",
    "CacheConfig",
    "CompositeProgram",
    "ConfigDatasheet",
    "ExplorationResult",
    "KernelContribution",
    "MemExplorer",
    "PerformanceEstimate",
    "Selection",
    "SelectionError",
    "SensitivityRow",
    "cycles_per_hit",
    "cycles_per_miss",
    "analytic_miss_rate",
    "analytic_misses",
    "config_sort_key",
    "datasheet",
    "design_space",
    "dominated_by_any",
    "evaluate_trace",
    "load_results_csv",
    "load_results_json",
    "pareto_front",
    "render_datasheet",
    "powers_of_two",
    "processor_cycles",
    "save_results_csv",
    "save_results_json",
    "select_configuration",
    "tornado",
    "tradeoff_range",
]
