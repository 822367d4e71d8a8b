"""Experiment orchestration: cached workload x strategy x GPU matrices."""

from repro.experiments.diskcache import (
    CacheStats,
    DiskCache,
    active_cache,
    configure as configure_disk_cache,
    result_key,
    strategy_fingerprint,
)
from repro.experiments.faults import FaultPlan, FaultSpec, InjectedFault
from repro.experiments.parallel import (
    CellSpec,
    default_jobs,
    plan_cells,
    run_matrix_parallel,
)
from repro.experiments.report import (
    format_cache_stats,
    format_speedup_matrix,
    format_table,
)
from repro.experiments.resilience import RetryPolicy
from repro.experiments.sweeps import (
    SweepPoint,
    characterization_sweep,
    make_character_trace,
)
from repro.experiments.runner import (
    STRATEGY_FACTORIES,
    SWEEP_THRESHOLDS,
    Cell,
    arithmetic_mean,
    best_sw_result,
    best_threshold,
    clear_caches,
    get_result,
    get_trace,
    get_workload,
    make_strategy,
    run_matrix,
    seed_result,
    simulate_cell,
    speedups_over_baseline,
    strategy_applicable,
)

__all__ = [
    "CacheStats",
    "DiskCache",
    "active_cache",
    "configure_disk_cache",
    "result_key",
    "strategy_fingerprint",
    "CellSpec",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
    "default_jobs",
    "plan_cells",
    "run_matrix_parallel",
    "format_cache_stats",
    "format_speedup_matrix",
    "SweepPoint",
    "characterization_sweep",
    "make_character_trace",
    "format_table",
    "STRATEGY_FACTORIES",
    "SWEEP_THRESHOLDS",
    "Cell",
    "arithmetic_mean",
    "best_sw_result",
    "best_threshold",
    "clear_caches",
    "get_result",
    "get_trace",
    "get_workload",
    "make_strategy",
    "run_matrix",
    "seed_result",
    "simulate_cell",
    "speedups_over_baseline",
    "strategy_applicable",
]
