"""Experiment runner: workload x strategy x GPU matrices with caching.

The benchmark harness reproduces ~14 tables/figures that share traces and
simulations (the same baseline run appears in half the figures).  This
module memoizes workload trace captures and simulation results
process-wide, so each (workload, GPU, strategy) cell is simulated exactly
once per session no matter how many figures reference it.

Below the in-memory layer sits a persistent content-addressed disk cache
(:mod:`repro.experiments.diskcache`): :func:`get_result` consults memory,
then disk, and only then simulates.  Warm sessions therefore replay whole
figure matrices without a single :func:`simulate_kernel` call.  For
fanning the independent cells out across worker processes, see
:mod:`repro.experiments.parallel`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.experiments import diskcache
from repro.core import (
    LAB,
    PHI,
    ArcHW,
    ArcSWButterfly,
    ArcSWSerialized,
    AtomicStrategy,
    BaselineAtomic,
    CCCLReduce,
    LABIdeal,
)
from repro.gpu import SIMULATED_GPUS, GPUConfig, SimResult, simulate_kernel
from repro.trace.events import KernelTrace

if TYPE_CHECKING:
    from repro.workloads import Workload

__all__ = [
    "STRATEGY_FACTORIES",
    "get_workload",
    "get_trace",
    "seed_trace",
    "get_result",
    "make_strategy",
    "simulate_cell",
    "seed_result",
    "run_matrix",
    "speedups_over_baseline",
    "arithmetic_mean",
    "clear_caches",
]

#: Canonical strategy factories by report name.  ARC-SW entries carry the
#: balancing threshold in the name, as in the paper ("SW-B-16").
STRATEGY_FACTORIES: dict[str, Callable[[], AtomicStrategy]] = {
    "baseline": BaselineAtomic,
    "ARC-HW": ArcHW,
    "CCCL": CCCLReduce,
    "LAB": LAB,
    "LAB-ideal": LABIdeal,
    "PHI": PHI,
    **{
        f"ARC-SW-B-{threshold}": (
            lambda threshold=threshold: ArcSWButterfly(threshold)
        )
        for threshold in (0, 4, 8, 16, 24)
    },
    **{
        f"ARC-SW-S-{threshold}": (
            lambda threshold=threshold: ArcSWSerialized(threshold)
        )
        for threshold in (0, 4, 8, 16, 24)
    },
}

#: Balancing thresholds swept by the Figure 23 sensitivity study.
SWEEP_THRESHOLDS = (0, 4, 8, 16, 24)

_workload_cache: dict[str, Workload] = {}
_trace_cache: dict[str, KernelTrace] = {}
_result_cache: dict[tuple[str, str, str], SimResult] = {}


def clear_caches(disk: bool = False) -> None:
    """Drop all memoized workloads, traces and simulation results.

    The persistent disk layer survives by default (that is its point);
    pass ``disk=True`` to also wipe the active on-disk cache, which
    isolation-sensitive tests need so no state leaks between them.
    """
    _workload_cache.clear()
    _trace_cache.clear()
    _result_cache.clear()
    if disk:
        cache = diskcache.active_cache()
        if cache is not None:
            cache.clear()


def load_workload(key: str) -> Workload:
    """Late-bound :func:`repro.workloads.load_workload` (tests patch this
    name); trace replay never renders, so it never loads the renderer."""
    from repro.workloads import load_workload as _load_workload

    return _load_workload(key)


def get_workload(key: str) -> Workload:
    """Memoized workload instance (built lazily on first use)."""
    if key not in _workload_cache:
        _workload_cache[key] = load_workload(key)
    return _workload_cache[key]


def get_trace(key: str) -> KernelTrace:
    """Memoized gradient-kernel trace of workload *key*."""
    if key not in _trace_cache:
        _trace_cache[key] = get_workload(key).capture_trace()
    return _trace_cache[key]


def seed_trace(key: str, trace: KernelTrace) -> None:
    """Inject an already-captured trace into the memoization layer.

    Callers that capture traces themselves (the CLI, tests with synthetic
    workloads) use this so :func:`get_result` and the parallel runner
    replay the exact same trace instead of re-capturing.
    """
    _trace_cache[key] = trace


def _gpu_by_name(gpu: "str | GPUConfig") -> GPUConfig:
    if isinstance(gpu, GPUConfig):
        return gpu
    return SIMULATED_GPUS[gpu]


def make_strategy(strategy: str) -> AtomicStrategy:
    """Fresh strategy instance for a registry name, validating the name."""
    if strategy not in STRATEGY_FACTORIES:
        raise KeyError(
            f"unknown strategy {strategy!r}; "
            f"choose from {sorted(STRATEGY_FACTORIES)}"
        )
    return STRATEGY_FACTORIES[strategy]()


def simulate_cell(trace: KernelTrace, config: GPUConfig,
                  strategy: AtomicStrategy) -> SimResult:
    """Disk-then-simulate path shared by the serial and parallel runners.

    Consults the persistent cache under a content hash of (config, trace,
    strategy); on a miss, simulates and stores the result.  Memory-level
    memoization stays the caller's job (:func:`get_result` here, the
    per-process caches in :mod:`repro.experiments.parallel`).
    """
    cache = diskcache.active_cache()
    if cache is None:
        return simulate_kernel(trace, config, strategy)
    key = diskcache.result_key(config, trace, strategy)
    result = cache.load(key)
    if result is None:
        result = simulate_kernel(trace, config, strategy)
        cache.store(key, result)
    return result


def _memory_key(workload: str, config: GPUConfig,
                strategy: str) -> tuple[str, str, str]:
    # Keyed by config *content*, not name: ablations pass modified copies
    # of a preset that keep its name, and those must not collide.
    return (workload, config.fingerprint(), strategy)


def get_result(workload: str, gpu: "str | GPUConfig",
               strategy: str) -> SimResult:
    """One (workload, GPU, strategy) cell: memory -> disk -> simulate."""
    config = _gpu_by_name(gpu)
    cache_key = _memory_key(workload, config, strategy)
    if cache_key not in _result_cache:
        instance = make_strategy(strategy)
        trace = get_trace(workload)
        _result_cache[cache_key] = simulate_cell(trace, config, instance)
    return _result_cache[cache_key]


def seed_result(workload: str, gpu: "str | GPUConfig", strategy: str,
                result: SimResult) -> None:
    """Inject an already-computed cell into the in-memory layer.

    The parallel runner uses this to make worker results visible to
    subsequent serial :func:`get_result` calls in the parent process.
    """
    config = _gpu_by_name(gpu)
    _result_cache[_memory_key(workload, config, strategy)] = result


@dataclass(frozen=True)
class Cell:
    """One entry of an experiment matrix."""

    workload: str
    gpu: str
    strategy: str
    result: SimResult

    @property
    def cycles(self) -> float:
        return self.result.total_cycles


def strategy_applicable(workload: str, strategy: str) -> bool:
    """SW-B (and thresholded variants) need divergence-free kernels."""
    if "SW-B" not in strategy:
        return True
    return get_trace(workload).bfly_eligible


def run_matrix(
    workloads: "list[str]",
    strategies: "list[str]",
    gpus: "list[str | GPUConfig]",
    skip_inapplicable: bool = True,
) -> list[Cell]:
    """Simulate every applicable (workload, strategy, GPU) combination."""
    cells = []
    for gpu in gpus:
        config = _gpu_by_name(gpu)
        for workload in workloads:
            for strategy in strategies:
                if skip_inapplicable and not strategy_applicable(
                    workload, strategy
                ):
                    continue
                cells.append(
                    Cell(
                        workload=workload,
                        gpu=config.name,
                        strategy=strategy,
                        result=get_result(workload, config, strategy),
                    )
                )
    return cells


def best_threshold(workload: str, gpu: "str | GPUConfig",
                   variant: str = "B") -> int:
    """Best-performing balancing threshold for one workload (§5.5.3).

    This is the offline analogue of the paper's auto-tuner: simulate the
    kernel at each candidate threshold and keep the fastest.
    """
    if variant not in ("B", "S"):
        raise ValueError("variant must be 'B' or 'S'")
    best, best_cycles = SWEEP_THRESHOLDS[0], float("inf")
    for threshold in SWEEP_THRESHOLDS:
        result = get_result(workload, gpu, f"ARC-SW-{variant}-{threshold}")
        if result.total_cycles < best_cycles:
            best, best_cycles = threshold, result.total_cycles
    return best


def best_sw_result(workload: str, gpu: "str | GPUConfig",
                   variant: str = "B") -> SimResult:
    """SimResult of the best-threshold ARC-SW variant (the paper's SW-B /
    SW-S bars report the best-performing threshold, §7)."""
    threshold = best_threshold(workload, gpu, variant)
    return get_result(workload, gpu, f"ARC-SW-{variant}-{threshold}")


def speedups_over_baseline(cells: "list[Cell]") -> dict:
    """{(workload, gpu, strategy): speedup} for non-baseline cells."""
    speedups = {}
    for cell in cells:
        if cell.strategy == "baseline":
            continue
        baseline = get_result(cell.workload, cell.gpu, "baseline")
        speedups[(cell.workload, cell.gpu, cell.strategy)] = (
            cell.result.speedup_over(baseline)
        )
    return speedups


def arithmetic_mean(values) -> float:
    """Plain mean (the paper reports arithmetic means of speedups)."""
    values = list(values)
    if not values:
        raise ValueError("no values to average")
    return sum(values) / len(values)
