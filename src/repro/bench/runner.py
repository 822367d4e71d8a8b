"""Scenario execution: measure one registry entry, produce one document.

:func:`run_scenario` drives a :class:`~repro.bench.registry.Scenario`
through the existing simulation stack -- ``simulate_kernel`` directly for
``engine``/``telemetry`` cells, :func:`~repro.experiments.runner
.simulate_cell` against a private disk cache for ``cache`` cells, and
:func:`~repro.experiments.parallel.run_matrix_parallel` for ``parallel``
cells -- and records per-cell wall-time samples next to the cell's
deterministic projection (simulated cycles, result digest, trace
fingerprint, per-phase simulated time).

Measurement discipline:

* trace construction/capture happens once per trace, *outside* every
  timed region -- the harness measures the engine, not workload setup;
* every repeat uses a fresh strategy instance (mirroring production use)
  and its result digest is checked against the first repeat's, so a
  nondeterministic engine shows up as ``repeat_stable: false`` in the
  document rather than as silent noise;
* cache and parallel modes run against private, initially empty state
  (a temp-dir disk cache; cleared memoization), never the developer's
  real ``~/.cache/repro-arc``.

Progress is streamed to the obslog (``bench.start`` / ``bench.cell`` /
``bench.finish`` events) so a ``--log`` run records its benchmark
lifecycle alongside cache and cell events.
"""

from __future__ import annotations

import tempfile

from repro import obslog
from repro.bench.metrics import (
    peak_rss_kb,
    phase_cycle_totals,
    sim_digest,
    summarize_samples,
    time_call_ms,
)
from repro.bench.registry import Scenario, get_scenario
from repro.bench.schema import make_envelope

__all__ = ["run_scenario"]


def _cell_id(trace: str, gpu: str, strategy: str,
             variant: "str | None" = None) -> str:
    parts = [trace, gpu, strategy]
    if variant is not None:
        parts.append(variant)
    return "|".join(parts)


def _plan(scenario: Scenario) -> "tuple[list, list]":
    """Build traces once and expand the applicable cell matrix.

    Returns ``(built_traces, cells)`` where cells are
    ``(trace_name, trace, gpu_name, strategy)`` tuples.  SW-B strategies
    skip divergence-ineligible traces, exactly like the figure runner.
    """
    from repro.gpu import SIMULATED_GPUS

    built = [(name, factory()) for name, factory in scenario.traces]
    cells = []
    for gpu_name in scenario.gpus:
        if gpu_name not in SIMULATED_GPUS:
            raise KeyError(f"unknown GPU {gpu_name!r} in scenario "
                           f"{scenario.name!r}")
        for trace_name, trace in built:
            for strategy in scenario.strategies:
                if "SW-B" in strategy and not trace.bfly_eligible:
                    continue
                cells.append((trace_name, trace, gpu_name, strategy))
    return built, cells


def _measure_simulations(trace, gpu_name: str, strategy: str, repeats: int,
                         with_telemetry: bool) -> "tuple[dict, object]":
    """Time *repeats* fresh simulations of one cell; build its record."""
    from repro.experiments.runner import make_strategy
    from repro.gpu import SIMULATED_GPUS, Telemetry, simulate_kernel

    config = SIMULATED_GPUS[gpu_name]
    samples, digests = [], []
    result = None
    telemetry = None
    for _ in range(repeats):
        instance = make_strategy(strategy)
        telemetry = Telemetry() if with_telemetry else None
        wall_ms, result = time_call_ms(
            lambda: simulate_kernel(trace, config, instance,
                                    telemetry=telemetry)
        )
        samples.append(wall_ms)
        digests.append(sim_digest(result))
    record = {
        "wall_ms": summarize_samples(samples),
        "deterministic": {
            "sim_cycles": result.total_cycles,
            "rop_ops": result.rop_ops,
            "lane_ops": result.lane_ops,
            "trace_fingerprint": trace.fingerprint,
            "sim_digest": digests[0],
            "repeat_stable": len(set(digests)) == 1,
            "phase_cycles": (
                phase_cycle_totals(telemetry) if with_telemetry else None
            ),
        },
        "throughput": {
            "batches_per_sec": (
                trace.n_batches / (summarize_samples(samples)["median"] / 1e3)
            ),
        },
    }
    return record, result


def _run_engine(scenario: Scenario, cells, repeats: int) -> "tuple[list, dict]":
    records = []
    for trace_name, trace, gpu_name, strategy in cells:
        record, _ = _measure_simulations(trace, gpu_name, strategy,
                                         repeats, with_telemetry=False)
        record = {"id": _cell_id(trace_name, gpu_name, strategy),
                  "trace": trace_name, "gpu": gpu_name,
                  "strategy": strategy, "variant": None, **record}
        obslog.emit("bench.cell", id=record["id"],
                    wall_ms=record["wall_ms"]["median"])
        records.append(record)
    return records, {}


def _run_telemetry(scenario: Scenario, cells,
                   repeats: int) -> "tuple[list, dict]":
    records = []
    ratios = []
    bit_identical = True
    for trace_name, trace, gpu_name, strategy in cells:
        pair = {}
        for variant, with_telemetry in (("off", False), ("on", True)):
            record, _ = _measure_simulations(trace, gpu_name, strategy,
                                             repeats, with_telemetry)
            record = {
                "id": _cell_id(trace_name, gpu_name, strategy, variant),
                "trace": trace_name, "gpu": gpu_name, "strategy": strategy,
                "variant": variant, **record,
            }
            obslog.emit("bench.cell", id=record["id"],
                        wall_ms=record["wall_ms"]["median"])
            records.append(record)
            pair[variant] = record
        ratios.append(pair["on"]["wall_ms"]["median"]
                      / max(pair["off"]["wall_ms"]["median"], 1e-9))
        if (pair["on"]["deterministic"]["sim_digest"]
                != pair["off"]["deterministic"]["sim_digest"]):
            bit_identical = False
    overhead = {
        "overhead_ratio": sum(ratios) / len(ratios),
        "bit_identical": bit_identical,
    }
    return records, {"telemetry_overhead": overhead}


def _run_cache(scenario: Scenario, cells, repeats: int) -> "tuple[list, dict]":
    """A cold pass (simulate + store) then warm passes (pure disk hits)."""
    from repro.experiments import diskcache
    from repro.experiments.runner import make_strategy, simulate_cell
    from repro.gpu import SIMULATED_GPUS

    records = []
    pass_wall = {"cold": 0.0, "warm": 0.0}
    pass_stats = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        with diskcache.isolated(tmp):
            # isolated() repoints the cache but leaves an environment
            # REPRO_NO_DISK_CACHE=1 in force; this scenario *measures*
            # the disk layer, so force-enable its private directory
            # (isolated()'s exit restores the caller's state either way).
            cache = diskcache.configure(root=tmp, enabled=True)
            for variant in ("cold", "warm"):
                start_hits = cache.stats.hits
                start_lookups = cache.stats.lookups
                for trace_name, trace, gpu_name, strategy in cells:
                    config = SIMULATED_GPUS[gpu_name]
                    samples, digests = [], []
                    result = None
                    # The cold pass runs once by definition (a repeat
                    # would already be warm); warm lookups repeat.
                    for _ in range(1 if variant == "cold" else repeats):
                        instance = make_strategy(strategy)
                        wall_ms, result = time_call_ms(
                            lambda: simulate_cell(trace, config, instance)
                        )
                        samples.append(wall_ms)
                        digests.append(sim_digest(result))
                    record = {
                        "id": _cell_id(trace_name, gpu_name, strategy,
                                       variant),
                        "trace": trace_name, "gpu": gpu_name,
                        "strategy": strategy, "variant": variant,
                        "wall_ms": summarize_samples(samples),
                        "deterministic": {
                            "sim_cycles": result.total_cycles,
                            "rop_ops": result.rop_ops,
                            "lane_ops": result.lane_ops,
                            "trace_fingerprint": trace.fingerprint,
                            "sim_digest": digests[0],
                            "repeat_stable": len(set(digests)) == 1,
                            "phase_cycles": None,
                        },
                        "throughput": {
                            "batches_per_sec": trace.n_batches / (
                                summarize_samples(samples)["median"] / 1e3
                            ),
                        },
                    }
                    obslog.emit("bench.cell", id=record["id"],
                                wall_ms=record["wall_ms"]["median"])
                    records.append(record)
                    pass_wall[variant] += sum(samples)
                lookups = cache.stats.lookups - start_lookups
                hits = cache.stats.hits - start_hits
                pass_stats[variant] = hits / lookups if lookups else 0.0
    cache_block = {
        "cold_hit_rate": pass_stats["cold"],
        "warm_hit_rate": pass_stats["warm"],
        "warm_speedup": pass_wall["cold"] / max(pass_wall["warm"], 1e-9),
    }
    return records, {"cache": cache_block}


def _run_parallel(scenario: Scenario, cells,
                  repeats: int) -> "tuple[list, dict]":
    """The matrix serially, then fanned over a spawn pool."""
    from repro.experiments import diskcache
    from repro.experiments.runner import clear_caches, seed_trace

    records = []
    serial_wall = 0.0
    serial_digests = {}
    for trace_name, trace, gpu_name, strategy in cells:
        record, _ = _measure_simulations(trace, gpu_name, strategy,
                                         repeats, with_telemetry=False)
        record = {"id": _cell_id(trace_name, gpu_name, strategy, "serial"),
                  "trace": trace_name, "gpu": gpu_name,
                  "strategy": strategy, "variant": "serial", **record}
        obslog.emit("bench.cell", id=record["id"],
                    wall_ms=record["wall_ms"]["median"])
        records.append(record)
        serial_wall += record["wall_ms"]["median"]
        serial_digests[(trace_name, gpu_name, strategy)] = (
            record["deterministic"]["sim_digest"]
        )

    from repro.experiments.parallel import run_matrix_parallel

    workloads = sorted({name for name, _, _, _ in cells})
    trace_by_name = {name: trace for name, trace, _, _ in cells}
    bit_identical = True
    with tempfile.TemporaryDirectory(prefix="repro-bench-par-") as tmp:
        with diskcache.isolated(tmp):
            # Force-enable the private cache dir (the spawn pool journals
            # its resume manifest under it) regardless of the caller's
            # REPRO_NO_DISK_CACHE; isolated() restores state on exit.
            diskcache.configure(root=tmp, enabled=True)
            # Private memoization: seed exactly the bench traces, run,
            # then drop everything so no state leaks to the caller.
            clear_caches()
            for name in workloads:
                seed_trace(name, trace_by_name[name])
            try:
                parallel_wall, matrix = time_call_ms(
                    lambda: run_matrix_parallel(
                        workloads, list(scenario.strategies),
                        list(scenario.gpus), jobs=scenario.jobs,
                        resume=False,
                    )
                )
            finally:
                clear_caches()
    for cell in matrix:
        expected = serial_digests.get(
            (cell.workload, cell.gpu, cell.strategy)
        )
        if expected is not None and sim_digest(cell.result) != expected:
            bit_identical = False
    parallel_block = {
        "jobs": scenario.jobs,
        "serial_wall_ms": serial_wall,
        "parallel_wall_ms": parallel_wall,
        "speedup": serial_wall / max(parallel_wall, 1e-9),
        "bit_identical": bit_identical,
    }
    return records, {"parallel": parallel_block}


_MODE_RUNNERS = {
    "engine": _run_engine,
    "telemetry": _run_telemetry,
    "cache": _run_cache,
    "parallel": _run_parallel,
}


def run_scenario(name: str, repeats: "int | None" = None) -> dict:
    """Execute scenario *name* and return its BENCH document."""
    scenario = get_scenario(name)
    repeats = scenario.repeats if repeats is None else repeats
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    _, cells = _plan(scenario)
    config = {
        "mode": scenario.mode,
        "repeats": repeats,
        "gpus": list(scenario.gpus),
        "strategies": list(scenario.strategies),
        "traces": [trace_name for trace_name, _ in scenario.traces],
        "jobs": scenario.jobs if scenario.mode == "parallel" else None,
    }
    obslog.emit("bench.start", scenario=name, mode=scenario.mode,
                repeats=repeats, cells=len(cells))
    doc = make_envelope(name, config)
    records, extra = _MODE_RUNNERS[scenario.mode](scenario, cells, repeats)
    wall_total = sum(
        record["wall_ms"]["mean"] * record["wall_ms"]["n"]
        for record in records
    )
    runs = sum(record["wall_ms"]["n"] for record in records)
    doc["cells"] = records
    doc["aggregate"] = {
        "wall_ms_total": wall_total,
        "cells": len(records),
        "runs": runs,
        "cells_per_sec": runs / max(wall_total / 1e3, 1e-9),
        "peak_rss_kb": peak_rss_kb(),
        "cache": extra.get("cache"),
        "telemetry_overhead": extra.get("telemetry_overhead"),
        "parallel": extra.get("parallel"),
    }
    obslog.emit("bench.finish", scenario=name, cells=len(records),
                wall_ms_total=wall_total)
    return doc
