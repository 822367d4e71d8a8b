"""Parallel experiment execution: fan independent cells across processes.

Every (workload, GPU, strategy) cell of an experiment matrix is an
independent simulation, which makes the figure harness embarrassingly
parallel.  :func:`run_matrix_parallel` plans the same cell list as the
serial :func:`~repro.experiments.runner.run_matrix`, spools each needed
trace to disk once, and dispatches the cells over a
:class:`~concurrent.futures.ProcessPoolExecutor` -- one future per
cell, driven by the fault-tolerance loop in
:mod:`repro.experiments.resilience` (bounded retries, per-cell
timeouts, pool-crash recovery, in-process serial fallback) and
journaled by :mod:`repro.experiments.manifest` so interrupted runs
resume instead of restarting.

Determinism is a hard requirement ("parallel and cached runs produce
bit-identical results to serial uncached runs"), so the design removes
every source of divergence:

* workers are started with the ``spawn`` context -- fresh interpreters
  with no inherited caches, monkeypatches or RNG state;
* workers never re-capture traces: the parent captures (or recalls) each
  trace exactly once and workers replay the identical ``.npz`` bytes;
* the simulator itself is deterministic, so cell results are independent
  of scheduling, worker count, completion order -- and of *recovery*:
  a retried, respawned or fallback-executed cell reruns the identical
  simulation (retry backoff jitter is itself derived from the cell key,
  not an RNG);
* results are reassembled in planning order, which equals serial order.

Workers share the parent's persistent disk cache (same directory), so a
parallel run both benefits from and contributes to warm-cache state;
entry writes are atomic, making concurrent writers safe.
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

from repro import obslog
from repro.experiments import diskcache, faults, iosan, runner
from repro.obs import tracing
from repro.experiments.manifest import RunManifest
from repro.experiments.resilience import (
    CellReport,
    RetryPolicy,
    RunReport,
    run_resilient,
)
from repro.experiments.runner import Cell, run_matrix
from repro.gpu import GPUConfig, SimResult
from repro.trace.events import KernelTrace
from repro.trace.io import load_trace, save_trace

__all__ = [
    "JOBS_ENV",
    "CellSpec",
    "default_jobs",
    "plan_cells",
    "run_matrix_parallel",
]

JOBS_ENV = "REPRO_JOBS"


@dataclass(frozen=True)
class CellSpec:
    """One cell of work, self-contained enough to ship to a worker.

    Carries the full :class:`GPUConfig` (not just a preset name) so cells
    over ablated configs parallelize identically to preset ones, and the
    fingerprint of the trace it was planned against: workers load and
    cache traces by content, so a workload whose trace was replaced
    under the same name never replays the old one.
    """

    workload: str
    gpu: GPUConfig
    strategy: str
    trace_fingerprint: str

    @property
    def cell_id(self) -> str:
        return faults.cell_id(self.workload, self.gpu.name, self.strategy)


def default_jobs(fallback: "int | None" = None) -> int:
    """Worker count when none is requested.

    ``REPRO_JOBS`` wins when set to a positive integer (other values are
    ignored); otherwise *fallback* when given, otherwise
    ``os.cpu_count``.
    """
    raw = os.environ.get(JOBS_ENV, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            value = 0
        if value > 0:
            return value
    if fallback is not None:
        return fallback
    return max(1, os.cpu_count() or 1)


def plan_cells(
    workloads: "list[str]",
    strategies: "list[str]",
    gpus: "list[str | GPUConfig]",
    skip_inapplicable: bool = True,
) -> list[CellSpec]:
    """The exact cell sequence :func:`run_matrix` would simulate."""
    for strategy in strategies:
        runner.make_strategy(strategy)  # fail fast on unknown names
    specs = []
    for gpu in gpus:
        config = runner._gpu_by_name(gpu)
        for workload in workloads:
            for strategy in strategies:
                if skip_inapplicable and not runner.strategy_applicable(
                    workload, strategy
                ):
                    continue
                specs.append(CellSpec(
                    workload, config, strategy,
                    runner.get_trace(workload).fingerprint,
                ))
    return specs


# --------------------------------------------------------------------- #
# Worker side.  Module-level state survives across tasks within one
# worker process (spawn re-imports this module there); traces are loaded
# from the parent's spool and kept by fingerprint, least recently used
# evicted first, up to _WORKER_TRACE_SLOTS per worker.
#
# The service broker (repro.service.broker) reuses this exact worker
# surface -- _worker_init as its pool initializer, _spool_path for its
# trace spool, _run_spec as its task, _fallback_spec for in-process
# degradation -- so daemon requests and matrix cells execute through one
# code path and stay bit-identical.
# --------------------------------------------------------------------- #

_worker_trace_dir: "Path | None" = None
#: Loaded traces by fingerprint, least- to most-recently-used.
_worker_traces: dict[str, KernelTrace] = {}
#: Traces one worker keeps loaded.  At least the 12 Table-2 workloads,
#: so a figure matrix never reloads; a long-lived service worker stays
#: bounded however many workloads it serves.
_WORKER_TRACE_SLOTS = 16


def _worker_init(trace_dir: str, cache_root: "str | None",
                 cache_enabled: bool) -> None:
    global _worker_trace_dir
    _worker_trace_dir = Path(trace_dir)
    _worker_traces.clear()
    iosan.maybe_install()
    faults.mark_worker()
    if cache_enabled and cache_root is not None:
        diskcache.configure(root=cache_root, enabled=True)
    else:
        diskcache.configure(enabled=False)


def _spool_path(directory: Path, fingerprint: str) -> Path:
    """Where a trace is spooled for workers: named by its content."""
    return directory / f"{fingerprint}.npz"


def _worker_trace(spec: CellSpec) -> KernelTrace:
    workload, fingerprint = spec.workload, spec.trace_fingerprint
    trace = _worker_traces.pop(fingerprint, None)
    if trace is None:
        if _worker_trace_dir is None:
            raise RuntimeError(
                f"worker asked for the {workload!r} trace before "
                "_worker_init ran: either this function was called "
                "outside run_matrix_parallel, or the worker died between "
                "initialization and its first task and was respawned "
                "without state"
            )
        path = _spool_path(_worker_trace_dir, fingerprint)
        if not path.exists():
            raise FileNotFoundError(
                f"spooled trace for workload {workload!r} missing at "
                f"{path}: the parent's spool directory was cleaned up "
                "(interrupted run?) or the workload was never spooled"
            )
        trace = load_trace(path)
        if len(_worker_traces) >= _WORKER_TRACE_SLOTS:
            del _worker_traces[next(iter(_worker_traces))]
    _worker_traces[fingerprint] = trace
    return trace


def _run_spec(spec: CellSpec, attempt: int) -> SimResult:
    """Worker task: simulate one cell (with fault hooks around it).

    The whole task is wrapped in a ``cell.execute`` span parented on
    the session root context carried through ``REPRO_TRACE`` (declared
    in the spawn-carry set; per-request context cannot reach workers --
    they snapshot the environment at pool construction).  The stitcher
    correlates worker spans with the broker's per-attempt spans by
    ``(cell, attempt)``.  With no obslog sink armed the span emission
    is a no-op, so the fault/simulate path stays byte-identical.
    """
    cell = spec.cell_id
    with tracing.span("cell.execute", parent=tracing.carried(),
                      role="worker", cell=cell, attempt=attempt):
        faults.on_attempt(cell, attempt)
        trace = _worker_trace(spec)
        strategy = runner.make_strategy(spec.strategy)
        result = runner.simulate_cell(trace, spec.gpu, strategy)
        _maybe_corrupt_entry(spec, trace, attempt)
    return result


def _maybe_corrupt_entry(spec: CellSpec, trace: KernelTrace,
                         attempt: int) -> None:
    """Apply a planned ``corrupt-cache`` fault to this cell's entry."""
    if not faults.planned_corruption(spec.cell_id, attempt):
        return
    cache = diskcache.active_cache()
    if cache is None:
        return
    key = diskcache.result_key(
        spec.gpu, trace, runner.make_strategy(spec.strategy)
    )
    faults.corrupt_entry(cache.entry_path(key))


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #


def _spool_traces(specs: "list[CellSpec]", directory: Path) -> None:
    """Write each planned (memoized) trace once for workers to replay."""
    for spec in {spec.trace_fingerprint: spec for spec in specs}.values():
        save_trace(runner.get_trace(spec.workload),
                   _spool_path(directory, spec.trace_fingerprint))


def _fallback_spec(spec: CellSpec, attempt: int) -> SimResult:
    """In-process serial execution for a cell that exhausted its pool
    retries (graceful degradation; crash/hang faults never fire here)."""
    faults.on_attempt(spec.cell_id, attempt)
    trace = runner.get_trace(spec.workload)
    strategy = runner.make_strategy(spec.strategy)
    return runner.simulate_cell(trace, spec.gpu, strategy)


def run_matrix_parallel(
    workloads: "list[str]",
    strategies: "list[str]",
    gpus: "list[str | GPUConfig]",
    jobs: "int | None" = None,
    skip_inapplicable: bool = True,
    policy: "RetryPolicy | None" = None,
    report: "RunReport | None" = None,
    resume: bool = True,
) -> list[Cell]:
    """Parallel, fault-tolerant, bit-identical drop-in for
    :func:`run_matrix`.

    Dispatches the matrix's cells across *jobs* worker processes
    (default: ``REPRO_JOBS`` or all CPUs) under *policy* (default:
    :meth:`RetryPolicy.from_env`): failed cells are retried with
    deterministic backoff, hung cells time out, a crashed pool is
    respawned with only unfinished cells requeued, and cells that
    exhaust retries degrade to in-process serial execution.  Completed
    cells are journaled (under the active disk cache root) so an
    interrupted run resumes by re-simulating only the remainder; pass
    ``resume=False`` to ignore and overwrite any existing journal.

    Pass a :class:`RunReport` as *report* to receive per-cell attempt
    histories and recovery counters.  Results are returned in planning
    (== serial) order and seeded into the parent's in-memory cache as
    they arrive, so follow-up serial calls (``speedups_over_baseline``,
    figure assembly) reuse them without re-simulating -- and so a
    Ctrl-C loses nothing already computed.  With ``jobs=1`` this simply
    delegates to the serial :func:`run_matrix`.
    """
    jobs = default_jobs() if jobs is None else jobs
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    if jobs == 1:
        return run_matrix(workloads, strategies, gpus,
                          skip_inapplicable=skip_inapplicable)
    policy = RetryPolicy.from_env() if policy is None else policy
    report = RunReport() if report is None else report

    specs = plan_cells(workloads, strategies, gpus,
                       skip_inapplicable=skip_inapplicable)
    if not specs:
        return []

    cache = diskcache.active_cache()
    cache_root = str(cache.root) if cache is not None else None

    # Content-address every cell up front (traces are memoized in the
    # parent): the same keys address the disk cache, the run manifest
    # and the per-cell reports.
    keys = [
        diskcache.result_key(
            spec.gpu,
            runner.get_trace(spec.workload),
            runner.make_strategy(spec.strategy),
        )
        for spec in specs
    ]
    report.cells = [
        CellReport(cell=spec.cell_id, key=key)
        for spec, key in zip(specs, keys)
    ]
    results: dict[int, SimResult] = {}

    obslog.emit("run.start", cells=len(specs), jobs=jobs,
                workloads=sorted(set(workloads)),
                strategies=list(strategies),
                gpus=[runner._gpu_by_name(gpu).name for gpu in gpus],
                cache_root=cache_root, resume=resume)

    manifest = None
    if cache is not None:
        manifest = RunManifest.for_run(cache.root / "manifests", keys)
        if resume:
            finished = manifest.load()
            for index, key in enumerate(keys):
                if key not in finished:
                    continue
                cached = cache.load(key)
                if cached is not None:
                    results[index] = cached
                    report.cells[index].source = "manifest"
                    obslog.emit("cell.skip", cell=specs[index].cell_id,
                                reason="manifest-resume", key=key)

    def on_result(index: int, result: SimResult) -> None:
        spec = specs[index]
        results[index] = result
        runner.seed_result(spec.workload, spec.gpu, spec.strategy, result)
        if manifest is not None:
            manifest.record(keys[index], {
                "workload": spec.workload,
                "gpu": spec.gpu.name,
                "strategy": spec.strategy,
            })
        obslog.emit("cell.finish", cell=spec.cell_id, key=keys[index],
                    source=report.cells[index].source,
                    total_cycles=result.total_cycles)
        faults.on_completed(spec.cell_id)

    pending = [i for i in range(len(specs)) if i not in results]
    if pending:
        with tempfile.TemporaryDirectory(prefix="repro-traces-") as spool:
            _spool_traces([specs[i] for i in pending], Path(spool))

            def pool_factory():
                return ProcessPoolExecutor(
                    max_workers=min(jobs, len(pending)),
                    mp_context=get_context("spawn"),
                    initializer=_worker_init,
                    initargs=(spool, cache_root, cache_root is not None),
                )

            run_resilient(
                pending,
                pool_factory=pool_factory,
                submit=lambda pool, index, attempt: pool.submit(
                    _run_spec, specs[index], attempt
                ),
                fallback=lambda index, attempt: _fallback_spec(
                    specs[index], attempt
                ),
                policy=policy,
                report=report,
                on_result=on_result,
            )

    if manifest is not None:
        manifest.discard()

    obslog.emit("run.finish", cells=len(specs),
                simulated=report.simulated, resumed=report.resumed,
                fallbacks=report.fallbacks, retries=report.retries,
                timeouts=report.timeouts, crashes=report.crashes,
                pool_restarts=report.pool_restarts)

    cells = []
    for index, spec in enumerate(specs):
        result = results[index]
        runner.seed_result(spec.workload, spec.gpu, spec.strategy, result)
        cells.append(
            Cell(workload=spec.workload, gpu=spec.gpu.name,
                 strategy=spec.strategy, result=result)
        )
    return cells
