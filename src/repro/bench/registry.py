"""Named benchmark scenarios: what ``repro bench <name>`` measures.

A scenario is a declarative (trace x GPU x strategy) matrix plus an
execution *mode* that says what the measurement exercises:

* ``engine``     -- raw :func:`~repro.gpu.engine.simulate_kernel` calls,
  no cache, no telemetry: the DES hot loop itself (ROADMAP item 1's
  target metric).
* ``telemetry``  -- every cell twice, collector off vs. on: the
  zero-overhead-when-off promise as a tracked ratio, plus per-phase
  simulated-time totals as deterministic regression material.
* ``cache``      -- every cell twice against a private empty disk cache:
  a cold pass (misses + writes) then a warm pass (pure hits), tracking
  hit rates and the warm-start speedup.
* ``parallel``   -- the matrix serially, then through
  :func:`~repro.experiments.parallel.run_matrix_parallel`: spawn-pool
  scaling and serial/parallel bit-identity.

The simulation service is measured end to end by ``perfbench/`` (its
``service-open`` and ``service-hot`` workloads), not here.

Traces are built by seeded factories (synthetic generators or small
workload captures), so every scenario is fully deterministic in its
non-timing fields; the matrices are sized to keep the ``cheap``-tagged
scenarios in whole-seconds territory -- they run on every PR in CI.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.trace.events import KernelTrace

__all__ = [
    "SCENARIOS",
    "Scenario",
    "cheap_scenario_names",
    "get_scenario",
    "scenario_names",
]


@dataclass(frozen=True)
class Scenario:
    """One named benchmark: a cell matrix plus its execution mode."""

    name: str
    description: str
    #: ``engine`` | ``telemetry`` | ``cache`` | ``parallel`` (see module
    #: docstring).
    mode: str
    #: Cheap scenarios run on every PR in CI; the rest are on demand.
    cheap: bool
    #: Default measurement repeats per cell (CLI ``--repeats`` overrides).
    repeats: int
    #: ``(trace_name, factory)`` pairs; factories are seeded and pure.
    traces: "tuple[tuple[str, Callable[[], KernelTrace]], ...]"
    gpus: "tuple[str, ...]"
    strategies: "tuple[str, ...]"
    #: Worker processes for ``parallel`` mode (ignored elsewhere).
    jobs: int = field(default=2)

    def cell_count(self) -> int:
        """Upper bound on matrix cells (SW-B skips divergent traces)."""
        return len(self.traces) * len(self.gpus) * len(self.strategies)


def _engine_smoke_coalesced() -> "KernelTrace":
    from repro.trace import coalesced_trace

    return coalesced_trace(n_batches=600, n_slots=256, num_params=8,
                           seed=3, name="bench-coalesced")


def _engine_smoke_mixed() -> "KernelTrace":
    from repro.trace import mixed_locality_trace

    return mixed_locality_trace(n_batches=400, n_slots=512, num_params=3,
                                seed=4, name="bench-mixed")


def _engine_smoke_scattered() -> "KernelTrace":
    from repro.trace import scattered_trace

    return scattered_trace(n_batches=300, n_slots=2048, num_params=1,
                           seed=5, name="bench-scattered")


def _small_gaussian_trace() -> "KernelTrace":
    from repro.workloads import GaussianWorkload

    workload = GaussianWorkload(
        key="bench-3D", dataset="bench", description="small 3DGS fit",
        n_gaussians=80, base_scale=0.15, extent=1.0, width=64, height=64,
        seed=1,
    )
    return workload.capture_trace()


def _small_sphere_trace() -> "KernelTrace":
    from repro.workloads import SphereWorkload

    workload = SphereWorkload(
        key="bench-PS", dataset="bench", description="small Pulsar fit",
        n_spheres=60, base_radius=0.16, width=64, height=64, seed=2,
    )
    return workload.capture_trace()


def _histogram_trace() -> "KernelTrace":
    from repro.workloads import HistogramWorkload

    workload = HistogramWorkload(
        n_elements=16384, n_bins=64, smoothness=4, seed=7,
    )
    return workload.capture_trace()


def _parallel_coalesced() -> "KernelTrace":
    from repro.trace import coalesced_trace

    return coalesced_trace(n_batches=800, n_slots=256, num_params=8,
                           seed=5, name="bench-par-coalesced")


def _parallel_mixed() -> "KernelTrace":
    from repro.trace import mixed_locality_trace

    return mixed_locality_trace(n_batches=800, n_slots=512, num_params=3,
                                seed=6, name="bench-par-mixed")


SCENARIOS: "dict[str, Scenario]" = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="engine_smoke",
            description="raw DES engine throughput on the three locality "
                        "regimes (coalesced / mixed / scattered)",
            mode="engine",
            cheap=True,
            repeats=3,
            traces=(
                ("coalesced", _engine_smoke_coalesced),
                ("mixed", _engine_smoke_mixed),
                ("scattered", _engine_smoke_scattered),
            ),
            gpus=("3060-Sim",),
            strategies=("baseline", "ARC-HW", "ARC-SW-S-8", "CCCL"),
        ),
        Scenario(
            name="table2_sweep_small",
            description="small Table-2-style workload captures (3DGS "
                        "splat, Pulsar spheres, histogram) through the "
                        "full report-strategy set",
            mode="engine",
            cheap=True,
            repeats=2,
            traces=(
                ("gaussian-small", _small_gaussian_trace),
                ("sphere-small", _small_sphere_trace),
                ("histogram", _histogram_trace),
            ),
            gpus=("3060-Sim",),
            strategies=("baseline", "ARC-HW", "ARC-SW-B-8", "ARC-SW-S-8",
                        "CCCL", "LAB", "PHI"),
        ),
        Scenario(
            name="cache_warm_vs_cold",
            description="disk-cache round trip: a cold pass (simulate + "
                        "store) then a warm pass (pure hits) over one "
                        "strategy set",
            mode="cache",
            cheap=True,
            repeats=1,
            traces=(("coalesced", _engine_smoke_coalesced),),
            gpus=("3060-Sim",),
            strategies=("baseline", "ARC-HW", "CCCL"),
        ),
        Scenario(
            name="parallel_scaling",
            description="serial vs. spawn-pool execution of one matrix: "
                        "scaling factor and serial/parallel bit-identity",
            mode="parallel",
            cheap=False,
            repeats=1,
            traces=(
                ("par-coalesced", _parallel_coalesced),
                ("par-mixed", _parallel_mixed),
            ),
            gpus=("3060-Sim",),
            strategies=("baseline", "ARC-HW", "ARC-SW-S-8", "CCCL"),
            jobs=2,
        ),
        Scenario(
            name="telemetry_on_off",
            description="telemetry collector off vs. on for the same "
                        "cells: overhead ratio plus per-phase "
                        "simulated-time totals",
            mode="telemetry",
            cheap=True,
            repeats=3,
            traces=(
                ("coalesced", _engine_smoke_coalesced),
                ("mixed", _engine_smoke_mixed),
            ),
            gpus=("3060-Sim",),
            strategies=("baseline", "LAB"),
        ),
    )
}


def scenario_names() -> "list[str]":
    """Every registered scenario name, sorted."""
    return sorted(SCENARIOS)


def cheap_scenario_names() -> "list[str]":
    """Scenarios cheap enough to run on every PR in CI, sorted."""
    return sorted(name for name, s in SCENARIOS.items() if s.cheap)


def get_scenario(name: str) -> Scenario:
    """Registry lookup with a helpful error for unknown names."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown bench scenario {name!r}; "
            f"choose from {scenario_names()}"
        ) from None
