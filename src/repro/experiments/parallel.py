"""Parallel experiment execution: fan independent cells across processes.

Every (workload, GPU, strategy) cell of an experiment matrix is an
independent simulation, which makes the figure harness embarrassingly
parallel.  :func:`run_matrix_parallel` plans the same cell list as the
serial :func:`~repro.experiments.runner.run_matrix`, skips the cells
whose results the disk cache already holds (so an interrupted run
resumes instead of restarting), and submits the rest to one
:class:`~repro.service.broker.Broker` -- the simulation service's own
front to the pool: one spawn worker pool under a circuit breaker,
bounded retries with deterministic backoff, per-attempt timeouts,
pool-crash recovery and in-process degradation.

Determinism is a hard requirement ("parallel and cached runs produce
bit-identical results to serial uncached runs"), so the design removes
every source of divergence:

* workers are started with the ``spawn`` context -- fresh interpreters
  with no inherited caches, monkeypatches or RNG state -- and refuse to
  start when their engine fingerprint differs from the parent's, so
  both sides compute the same keys for the same code;
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
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro import obslog
from repro.experiments import diskcache, faults, runner
from repro.obs import sanitize, tracing
from repro.experiments.resilience import RetryPolicy
from repro.experiments.runner import Cell, run_matrix
from repro.gpu import GPUConfig, SimResult
from repro.trace.events import KernelTrace
from repro.trace.io import load_trace

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.service.broker import Broker

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
# The broker (repro.service.broker) drives this worker surface --
# _worker_init as its pool initializer, _spool_path for its trace spool,
# _run_spec as its task, _fallback_spec for in-process degradation -- for
# daemon requests and matrix cells alike, so both stay bit-identical.
# --------------------------------------------------------------------- #

_worker_trace_dir: "Path | None" = None
#: Loaded traces by fingerprint, least- to most-recently-used.
_worker_traces: dict[str, KernelTrace] = {}
#: Traces one worker keeps loaded.  At least the 12 Table-2 workloads,
#: so a figure matrix never reloads; a long-lived service worker stays
#: bounded however many workloads it serves.
_WORKER_TRACE_SLOTS = 16


def _worker_init(trace_dir: str, cache_root: "str | None",
                 cache_enabled: bool, engine: str) -> None:
    """Pool initializer.  *engine* is the parent's
    :func:`~repro.experiments.diskcache.engine_fingerprint`.

    A worker started after the engine sources changed on disk (a pool
    respawned mid-run, after an edit or a checkout) runs other code than
    its parent and would key its results by it.  It refuses to start
    instead: the pool breaks, and the broker runs the cells in-process,
    on the parent's code and under the parent's keys.
    """
    global _worker_trace_dir
    own = diskcache.engine_fingerprint()
    if own != engine:
        raise RuntimeError(
            f"engine sources changed since the parent started "
            f"(worker {own[:12]}, parent {engine[:12]}): this worker "
            "would simulate other code than its parent's cache keys name"
        )
    _worker_trace_dir = Path(trace_dir)
    _worker_traces.clear()
    # The carried REPRO_LOG_LEVEL and the parent's stderr format.
    obslog.setup_logging()
    sanitize.maybe_install()
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
    the session root context carried through ``REPRO_TRACE``
    (per-request context cannot reach workers -- they snapshot the
    environment at pool construction).  The stitcher correlates worker
    spans with the broker's per-attempt spans by ``(cell, attempt)``.  With no obslog sink armed the span emission
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


def _fallback_spec(spec: CellSpec, attempt: int,
                   trace: KernelTrace) -> SimResult:
    """In-process serial execution for a cell that exhausted its pool
    retries (graceful degradation; crash/hang faults never fire here),
    on *trace*, the trace ``spec.trace_fingerprint`` names."""
    faults.on_attempt(spec.cell_id, attempt)
    strategy = runner.make_strategy(spec.strategy)
    return runner.simulate_cell(trace, spec.gpu, strategy)


def run_matrix_parallel(
    workloads: "list[str]",
    strategies: "list[str]",
    gpus: "list[str | GPUConfig]",
    jobs: "int | None" = None,
    skip_inapplicable: bool = True,
    policy: "RetryPolicy | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> list[Cell]:
    """Parallel, fault-tolerant, bit-identical drop-in for
    :func:`run_matrix`.

    Runs the matrix's cells through one :class:`~repro.service.broker.
    Broker` with *jobs* workers (default: ``REPRO_JOBS`` or all CPUs)
    under *policy* (default: :meth:`RetryPolicy.from_env`): failed
    cells are retried with deterministic backoff, hung cells time out,
    a crashed pool is respawned, and cells that exhaust retries degrade
    to in-process serial execution.  Every cell the disk cache already
    holds -- stored by an interrupted run, another matrix or a serial
    run -- is loaded in the parent and logged as a ``cell.skip``; only
    the remainder goes to the broker.

    Pass a :class:`~repro.obs.metrics.MetricsRegistry` as *metrics* to
    receive the broker's counters (attempt outcomes, degradations, pool
    restarts).  Results are returned in planning (== serial) order and
    seeded into the parent's in-memory cache as they arrive, so
    follow-up serial calls (``speedups_over_baseline``, figure assembly)
    reuse them without re-simulating -- and so a Ctrl-C loses nothing
    already computed.  A cell that also fails its in-process fallback
    raises :class:`~repro.service.request.RequestFailed` naming it.
    With ``jobs=1`` this simply delegates to the serial
    :func:`run_matrix`.
    """
    jobs = default_jobs() if jobs is None else jobs
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    if jobs == 1:
        return run_matrix(workloads, strategies, gpus,
                          skip_inapplicable=skip_inapplicable)

    specs = plan_cells(workloads, strategies, gpus,
                       skip_inapplicable=skip_inapplicable)
    if not specs:
        return []

    # Content-address every cell up front (traces are memoized in the
    # parent), so the disk cache can serve what it already holds.
    keys = [
        diskcache.result_key(
            spec.gpu,
            runner.get_trace(spec.workload),
            runner.make_strategy(spec.strategy),
        )
        for spec in specs
    ]
    results: dict[int, SimResult] = {}

    cache = diskcache.active_cache()
    if cache is not None:
        for index, key in enumerate(keys):
            # Only entries that exist are read, so a cold cell's one
            # lookup (and its cache.miss) stays in the worker.
            if not cache.entry_path(key).exists():
                continue
            cached = cache.load(key)
            if cached is not None:
                results[index] = cached
                obslog.emit("cell.skip", cell=specs[index].cell_id,
                            reason="cached", key=key)

    def on_result(index: int, result: SimResult) -> None:
        spec = specs[index]
        results[index] = result
        runner.seed_result(spec.workload, spec.gpu, spec.strategy, result)
        faults.on_completed(spec.cell_id)

    pending = [i for i in range(len(specs)) if i not in results]
    if pending:
        from repro.service.broker import Broker

        broker = Broker(jobs=min(jobs, len(pending)),
                        queue_depth=len(pending), policy=policy,
                        metrics=metrics)
        _run_to_completion(_drive(broker, specs, pending, on_result))

    cells = []
    for index, spec in enumerate(specs):
        result = results[index]
        runner.seed_result(spec.workload, spec.gpu, spec.strategy, result)
        cells.append(
            Cell(workload=spec.workload, gpu=spec.gpu.name,
                 strategy=spec.strategy, result=result)
        )
    return cells


def _run_to_completion(coro) -> None:
    """``asyncio.run(coro)``; when this thread already runs an event loop
    (a notebook cell calling the matrix), on a thread of its own, joined
    before returning and re-raising whatever the coroutine raised.  A
    Ctrl-C while joined cancels the coroutine, so the broker stops
    undrained there too, before the interrupt propagates."""
    import asyncio

    try:
        asyncio.get_running_loop()
    except RuntimeError:
        asyncio.run(coro)
        return
    import threading

    loop = asyncio.new_event_loop()
    task = loop.create_task(coro)
    raised: "list[BaseException]" = []
    finished = threading.Event()

    def run() -> None:
        try:
            loop.run_until_complete(task)
        except BaseException as exc:  # re-raised in the calling thread
            raised.append(exc)
        finally:
            loop.close()
            finished.set()

    thread = threading.Thread(target=run, name="repro-matrix")
    thread.start()
    try:
        thread.join()
    except BaseException:
        try:
            loop.call_soon_threadsafe(task.cancel)
        except RuntimeError:
            pass  # the loop closed: the coroutine already finished
        # Not a second join(): on CPython 3.11 a join that an interrupt
        # broke marks the thread stopped (bpo-45274), so it would return
        # at once while the broker is still stopping.
        finished.wait()
        raise
    if raised:
        raise raised[0]


async def _drive(broker: "Broker", specs: "list[CellSpec]",
                 pending: "list[int]", on_result) -> None:
    """Submit the *pending* cells to *broker* in plan order and hand each
    result to ``on_result(index, result)`` as it arrives.

    ``on_result`` runs here, in this coroutine, so an exception it
    raises -- the chaos ``interrupt`` fault's ``KeyboardInterrupt``
    included -- is caught below before asyncio can re-raise it out of
    the loop.  Any failure stops the broker undrained: the pool shuts
    down with ``wait=False, cancel_futures=True``, and the cells that
    finished stay in the disk cache for the rerun.
    """
    import asyncio

    from repro.service.request import SimRequest

    async def one(index: int):
        spec = specs[index]
        response = await broker.submit(
            SimRequest(spec.workload, spec.gpu, spec.strategy)
        )
        return index, response.result

    await broker.start()
    tasks = [asyncio.ensure_future(one(index)) for index in pending]
    try:
        for next_done in asyncio.as_completed(tasks):
            on_result(*await next_done)
    except BaseException:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await broker.stop(drain=False)
        raise
    await broker.stop()
