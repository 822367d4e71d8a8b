"""Chaos suite: fault-injected proofs of the execution layer's contract.

Matrix runs execute through the service :class:`~repro.service.broker.
Broker`; every recovery path is driven by a deterministic fault plan
(:mod:`repro.experiments.faults`), observed through the broker's
metrics registry and ``svc.*`` events, and held to the repo's core
invariant: recovery never changes results.  The acceptance proofs:

* **chaos determinism** -- a parallel sweep suffering a worker crash, a
  hang past the per-attempt timeout and a corrupted cache entry is
  bit-identical to a clean serial run, and a warm rerun quarantines the
  corrupt entry instead of serving or deleting it;
* **resume** -- a run interrupted after K of N cells re-simulates only
  the N-K remainder (asserted via the broker's admissions and the disk
  cache's entries), and a later, larger matrix admits only the cells
  no earlier run cached;
* **clean Ctrl-C** -- an interrupt shuts the pool down with
  ``cancel_futures``, and every completed cell is already seeded in the
  in-memory and disk caches;
* **bounded retries and graceful degradation** -- transient errors are
  retried with deterministic backoff, exhausted cells fall back to
  in-process execution, and only a cell that fails *that too* raises.

The pool-driving tests spawn real worker processes; the unit tests at
the bottom cover the plan/policy primitives in-process.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.connection import wait

import pytest

from repro import obslog
from repro.experiments import diskcache, faults, runner
from repro.experiments import parallel
from repro.experiments.faults import FaultPlan, FaultSpec, InjectedFault
from repro.experiments.parallel import plan_cells, run_matrix_parallel
from repro.experiments.resilience import RetryPolicy
from repro.experiments.runner import clear_caches, run_matrix
from repro.gpu import SIMULATED_GPUS
from repro.obs.metrics import MetricsRegistry
from repro.service import broker as broker_module
from repro.service.request import RequestFailed, SimRequest
from repro.trace import coalesced_trace, scattered_trace

WORKLOADS = ["P1", "P2"]
STRATEGIES = ["baseline", "ARC-HW"]
GPUS = ["3060-Sim"]
N_CELLS = 4

CRASH_CELL = "P1|3060-Sim|baseline"
CORRUPT_CELL = "P1|3060-Sim|ARC-HW"
HANG_CELL = "P2|3060-Sim|ARC-HW"


class FakeWorkload:
    """Deterministic synthetic stand-in for a Table 2 workload."""

    def __init__(self, key, bfly=True):
        self.key = key
        self._bfly = bfly

    def capture_trace(self):
        factory = coalesced_trace if self._bfly else scattered_trace
        return factory(n_batches=300, num_params=4, seed=11, name=self.key)


@pytest.fixture
def fake_registry(monkeypatch):
    fakes = {"P1": FakeWorkload("P1"), "P2": FakeWorkload("P2", bfly=False)}
    monkeypatch.setattr(runner, "load_workload", lambda key: fakes[key])
    return fakes


@pytest.fixture(autouse=True)
def clean_fault_plan():
    """No fault plan leaks into or out of any test (incl. REPRO_FAULTS)."""
    faults.configure(None)
    yield
    faults.configure(None)


def cell_tuples(cells):
    return [
        (c.workload, c.gpu, c.strategy, c.result.to_dict()) for c in cells
    ]


def chaos_policy(timeout=None):
    """Fast-retry policy so injected faults resolve in test time."""
    return RetryPolicy(
        max_attempts=3, timeout=timeout,
        backoff_base=0.01, backoff_max=0.05,
    )


def counted(metrics, name, **labels):
    """A broker counter's value (its total without *labels*); 0 when
    the run never created the family (nothing was dispatched)."""
    family = metrics.get(name)
    if family is None:
        return 0
    return family.value(**labels) if labels else family.total()


def assert_workers_exit(workers, budget_s=10.0):
    """Every pool worker in *workers* exits within *budget_s* seconds.

    Waits on each worker's sentinel rather than ``join()`` plus
    ``is_alive()``: the executor's management thread reaps the same
    children, and a ``Popen.poll()`` (behind both) that loses that
    ``waitpid`` race reads ECHILD as "alive" for a worker already gone.
    """
    assert workers
    pending = {process.sentinel: process for process in workers}
    deadline = time.monotonic() + budget_s
    while pending and time.monotonic() < deadline:
        for ready in wait(list(pending), deadline - time.monotonic()):
            del pending[ready]
    assert not pending, f"workers outlived the interrupt: {pending}"


def serial_baseline(tmp_path, workloads=WORKLOADS):
    """Clean, uncached serial truth; leaves a fresh enabled disk cache."""
    diskcache.configure(enabled=False)
    serial = run_matrix(workloads, STRATEGIES, GPUS)
    clear_caches()
    diskcache.configure(root=tmp_path / "chaos-cache", enabled=True)
    return serial


# --------------------------------------------------------------------- #
# Acceptance proofs
# --------------------------------------------------------------------- #


def test_chaos_run_is_bit_identical_to_clean_serial(fake_registry, tmp_path):
    """One crash, one hang past the timeout, one corrupted cache entry:
    the parallel sweep still matches clean serial bit for bit, and the
    corruption is quarantined (never deleted) on the warm rerun."""
    serial = serial_baseline(tmp_path)
    assert len(serial) == N_CELLS

    faults.configure(FaultPlan((
        FaultSpec(cell=CRASH_CELL, kind="crash"),
        FaultSpec(cell=HANG_CELL, kind="hang", times=2, seconds=20.0),
        FaultSpec(cell=CORRUPT_CELL, kind="corrupt-cache", times=3),
    )))
    metrics = MetricsRegistry()
    chaotic = run_matrix_parallel(
        WORKLOADS, STRATEGIES, GPUS, jobs=2,
        policy=chaos_policy(timeout=3.0), metrics=metrics,
    )
    assert cell_tuples(chaotic) == cell_tuples(serial)
    attempts = "repro_service_attempts_total"
    assert counted(metrics, attempts, outcome="crash") >= 1
    assert counted(metrics, attempts, outcome="timeout") >= 1
    assert counted(metrics, "repro_service_pool_restarts_total") >= 2
    completed = "repro_service_completed_total"
    assert (counted(metrics, completed, source="worker")
            + counted(metrics, completed, source="inproc")) == N_CELLS

    # Warm rerun: the corrupt entry is a quarantined miss, everything
    # else comes straight from disk, and the results are unchanged.
    faults.configure(None)
    clear_caches()
    cache = diskcache.active_cache()
    warm = run_matrix(WORKLOADS, STRATEGIES, GPUS)
    assert cell_tuples(warm) == cell_tuples(serial)
    assert cache.stats.quarantined == 1
    quarantined = cache.quarantined_entries()
    assert quarantined, "corrupt entry must be preserved, not deleted"
    corrupt_key = diskcache.result_key(
        SIMULATED_GPUS["3060-Sim"],
        runner.get_trace("P1"),
        runner.make_strategy("ARC-HW"),
    )
    assert any(path.name.startswith(corrupt_key) for path in quarantined)


def test_interrupted_run_resumes_without_resimulating(fake_registry,
                                                      tmp_path):
    """Interrupt after K of N cells; the rerun re-simulates only N-K."""
    serial = serial_baseline(tmp_path)
    faults.configure(FaultPlan((
        FaultSpec(cell=CRASH_CELL, kind="interrupt"),
    )))
    with pytest.raises(KeyboardInterrupt):
        run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                            policy=chaos_policy(), metrics=MetricsRegistry())

    cache = diskcache.active_cache()
    completed_before = len(cache.entries())
    assert 1 <= completed_before <= N_CELLS
    # The disk cache is the one record of finished work.
    assert {path.name for path in cache.root.iterdir()} <= {
        "results", "quarantine"}

    faults.configure(None)
    clear_caches()
    metrics = MetricsRegistry()
    resumed = run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                                  policy=chaos_policy(), metrics=metrics)
    assert cell_tuples(resumed) == cell_tuples(serial)
    remainder = N_CELLS - completed_before
    assert counted(metrics, "repro_service_admitted_total") == remainder
    assert counted(metrics, "repro_service_completed_total",
                   source="worker") == remainder


def test_superset_matrix_resumes_from_cells_a_smaller_run_cached(
        fake_registry, tmp_path):
    """A matrix run after a smaller one admits only the cells the first
    did not compute, and logs one ``cell.skip`` (cached) per other."""
    serial = serial_baseline(tmp_path)
    run_matrix_parallel(["P1"], STRATEGIES, GPUS, jobs=2,
                        policy=chaos_policy())
    first = sorted(f"P1|3060-Sim|{strategy}" for strategy in STRATEGIES)

    clear_caches()
    sink = tmp_path / "superset.jsonl"
    previous = obslog.set_obslog_path(sink)
    try:
        metrics = MetricsRegistry()
        cells = run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                                    policy=chaos_policy(), metrics=metrics)
    finally:
        obslog.set_obslog_path(previous)
    assert cell_tuples(cells) == cell_tuples(serial)
    assert counted(metrics, "repro_service_admitted_total") \
        == N_CELLS - len(first)
    skips = [e for e in obslog.read_events(sink) if e["event"] == "cell.skip"]
    assert sorted(e["cell"] for e in skips) == first
    assert all(e["reason"] == "cached" for e in skips)


def test_interrupt_shuts_pool_down_cleanly(fake_registry, tmp_path,
                                           monkeypatch):
    """Ctrl-C cancels queued futures, ends the workers -- also one still
    busy with a hung cell -- and loses no completed work: the finished
    cells are seeded in memory and on disk."""
    serial_baseline(tmp_path)
    shutdowns = []
    workers = []

    class SpyPool(ProcessPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            shutdowns.append({"wait": wait, "cancel_futures": cancel_futures})
            workers.extend((self._processes or {}).values())
            return super().shutdown(wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(broker_module, "ProcessPoolExecutor", SpyPool)
    faults.configure(FaultPlan((
        FaultSpec(cell=CRASH_CELL, kind="interrupt"),
        # Runs beside the interrupted cell and would outlive the test.
        FaultSpec(cell=CORRUPT_CELL, kind="hang", seconds=60.0),
    )))
    with pytest.raises(KeyboardInterrupt):
        run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                            policy=chaos_policy())
    assert {"wait": False, "cancel_futures": True} in shutdowns
    assert_workers_exit(workers)

    # The interrupted cell completed first: stored on disk under its
    # content-address key, and seeded into memory.
    cache = diskcache.active_cache()
    key = diskcache.result_key(
        SIMULATED_GPUS["3060-Sim"],
        runner.get_trace("P1"),
        runner.make_strategy("baseline"),
    )
    assert cache.entry_path(key).exists()

    monkeypatch.setattr(
        runner, "simulate_kernel",
        lambda *a, **k: pytest.fail("completed cell must be seeded"),
    )
    diskcache.configure(enabled=False)  # memory layer alone must serve it
    result = runner.get_result("P1", "3060-Sim", "baseline")
    assert result.total_cycles > 0


def test_transient_errors_retry_then_degrade_to_serial(fake_registry,
                                                       tmp_path,
                                                       monkeypatch):
    """Bounded retries recover a flaky cell; an exhausted cell falls
    back in-process -- both with results identical to clean serial."""
    serial = serial_baseline(tmp_path, workloads=["P1"])
    log_path = tmp_path / "events.jsonl"
    monkeypatch.setenv(obslog.OBSLOG_ENV, str(log_path))
    flaky, exhausted = "P1|3060-Sim|baseline", "P1|3060-Sim|ARC-HW"
    faults.configure(FaultPlan((
        FaultSpec(cell=flaky, kind="error", times=2),
        FaultSpec(cell=exhausted, kind="error", times=3),
    )))
    metrics = MetricsRegistry()
    cells = run_matrix_parallel(["P1"], STRATEGIES, GPUS, jobs=2,
                                policy=chaos_policy(), metrics=metrics)
    assert cell_tuples(cells) == cell_tuples(serial)

    events = obslog.read_events(log_path)
    failed = {}
    for event in events:
        if event["event"] == "svc.attempt":
            failed.setdefault(event["cell"], []).append(event)
    sources = {event["cell"]: event["source"]
               for event in events if event["event"] == "svc.finish"}

    # The flaky cell fails twice, then succeeds in a worker on attempt 3.
    assert [(e["attempt"], e["outcome"]) for e in failed[flaky]] == [
        (1, "error"), (2, "error")
    ]
    assert "InjectedFault" in failed[flaky][0]["error"]
    assert sources[flaky] == "worker"

    # The exhausted cell fails all three worker attempts and degrades.
    assert [(e["attempt"], e["outcome"]) for e in failed[exhausted]] == [
        (1, "error"), (2, "error"), (3, "error")
    ]
    [degrade] = [e for e in events if e["event"] == "svc.degrade"]
    assert (degrade["cell"], degrade["reason"], degrade["attempt"]) == (
        exhausted, "retries-exhausted", 4
    )
    assert sources[exhausted] == "inproc"

    attempts = "repro_service_attempts_total"
    assert counted(metrics, attempts, outcome="error") == 5
    assert counted(metrics, attempts, outcome="ok") == 1
    assert counted(metrics, "repro_service_degraded_total",
                   reason="retries-exhausted") == 1


def test_cell_failing_even_the_fallback_raises(fake_registry, tmp_path):
    serial_baseline(tmp_path, workloads=["P1"])
    faults.configure(FaultPlan((
        FaultSpec(cell="P1|3060-Sim|baseline", kind="error", times=10),
    )))
    metrics = MetricsRegistry()
    with pytest.raises(RequestFailed) as excinfo:
        run_matrix_parallel(["P1"], ["baseline"], GPUS, jobs=2,
                            policy=chaos_policy(), metrics=metrics)
    assert excinfo.value.cell == "P1|3060-Sim|baseline"
    assert isinstance(excinfo.value.cause, InjectedFault)
    # 3 worker attempts, then the 1 in-process fallback attempt.
    assert counted(metrics, "repro_service_attempts_total",
                   outcome="error") == 3
    assert counted(metrics, "repro_service_degraded_total",
                   reason="retries-exhausted") == 1
    assert counted(metrics, "repro_service_failures_total") == 4


def test_undrained_stop_returns_with_pool_futures_pending(fake_registry,
                                                         tmp_path):
    """An undrained ``Broker.stop`` -- the matrix interrupt path -- ends
    every dispatcher at once, also one whose pool future was still
    pending and was cancelled with it: that is a shutdown, not a pool
    abandoned under the dispatcher, so the cell is not retried."""
    import asyncio

    serial_baseline(tmp_path)
    # One worker, held by a hang: the later submissions stay pending.
    faults.configure(FaultPlan((
        FaultSpec(cell=CRASH_CELL, kind="hang", seconds=3.0),
    )))
    broker = broker_module.Broker(jobs=1, concurrency=N_CELLS,
                                  queue_depth=N_CELLS,
                                  policy=chaos_policy())
    executions = "repro_service_executions_total"

    async def scenario():
        await broker.start()
        tasks = [
            asyncio.ensure_future(broker.submit(
                SimRequest(workload, "3060-Sim", strategy)))
            for workload in WORKLOADS for strategy in STRATEGIES
        ]
        await asyncio.sleep(0.5)
        submitted = counted(broker.metrics, executions)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await asyncio.wait_for(broker.stop(drain=False), 2.0)
        return submitted

    assert asyncio.run(scenario()) == N_CELLS
    assert counted(broker.metrics, executions) == N_CELLS


def test_matrix_runs_from_inside_a_running_event_loop(fake_registry,
                                                      tmp_path):
    """A caller that already runs an event loop (a notebook cell) gets
    the same cells; a failing cell still raises its typed error."""
    import asyncio

    serial = serial_baseline(tmp_path, workloads=["P1"])

    async def notebook_cell():
        return run_matrix_parallel(["P1"], STRATEGIES, GPUS, jobs=2,
                                   policy=chaos_policy())

    assert cell_tuples(asyncio.run(notebook_cell())) == cell_tuples(serial)

    clear_caches()
    diskcache.active_cache().clear()  # else the rerun is served from disk
    faults.configure(FaultPlan((
        FaultSpec(cell="P1|3060-Sim|baseline", kind="error", times=10),
    )))
    with pytest.raises(RequestFailed):
        asyncio.run(notebook_cell())


def test_ctrl_c_inside_a_running_event_loop_stops_the_broker(
    fake_registry, tmp_path, monkeypatch,
):
    """A Ctrl-C while a caller's event loop waits on the matrix thread
    cancels the run there too: the thread ends and no worker outlives
    the interrupt, however long the cell it was running would hang."""
    import asyncio
    import signal
    import threading

    serial_baseline(tmp_path)
    workers = []

    class SpyPool(ProcessPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            workers.extend((self._processes or {}).values())
            return super().shutdown(wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(broker_module, "ProcessPoolExecutor", SpyPool)
    faults.configure(FaultPlan((
        FaultSpec(cell=CRASH_CELL, kind="hang", seconds=60.0),
    )))

    async def notebook_cell():
        return run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                                   policy=chaos_policy())

    ctrl_c = threading.Timer(2.5, signal.pthread_kill,
                             (threading.main_thread().ident, signal.SIGINT))
    loop = asyncio.new_event_loop()
    ctrl_c.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            loop.run_until_complete(notebook_cell())
    finally:
        ctrl_c.cancel()
        loop.close()
    assert not [t for t in threading.enumerate()
                if t.name == "repro-matrix" and t.is_alive()]
    assert_workers_exit(workers)


# --------------------------------------------------------------------- #
# Fault-plan primitives
# --------------------------------------------------------------------- #


def test_fault_plan_round_trips_through_env(monkeypatch):
    plan = FaultPlan((
        FaultSpec(cell="a|g|s", kind="crash"),
        FaultSpec(cell="b|g|s", kind="hang", times=2, seconds=1.5),
    ))
    assert FaultPlan.from_json(plan.to_json()) == plan

    faults.configure(plan)
    assert json.loads(
        __import__("os").environ[faults.FAULTS_ENV]
    ) == json.loads(plan.to_json())
    # A fresh process would read the plan back from the environment.
    monkeypatch.setattr(faults, "_plan", None)
    assert faults.active_plan() == plan
    faults.configure(None)
    assert faults.FAULTS_ENV not in __import__("os").environ
    assert faults.active_plan() is None


def test_fault_plan_accepts_bare_list_shorthand():
    """A hand-typed REPRO_FAULTS is usually a plain JSON list; it parses
    the same as the canonical {"faults": [...]} wrapper."""
    wrapped = FaultPlan.from_json(
        '{"faults": [{"cell": "a|g|s", "kind": "error", "times": 2}]}'
    )
    bare = FaultPlan.from_json(
        '[{"cell": "a|g|s", "kind": "error", "times": 2}]'
    )
    assert bare == wrapped
    assert bare.specs[0].times == 2


def test_fault_spec_validation_and_matching():
    with pytest.raises(ValueError):
        FaultSpec(cell="a|g|s", kind="meteor-strike")
    with pytest.raises(ValueError):
        FaultSpec(cell="a|g|s", kind="crash", times=0)
    spec = FaultSpec(cell="a|g|s", kind="error", times=2)
    assert spec.matches("a|g|s", "error", 1)
    assert spec.matches("a|g|s", "error", 2)
    assert not spec.matches("a|g|s", "error", 3)
    assert not spec.matches("a|g|s", "crash", 1)
    assert not spec.matches("b|g|s", "error", 1)
    assert faults.cell_id("w", "g", "s") == "w|g|s"


def test_error_faults_fire_in_parent_but_crash_and_hang_do_not(
    monkeypatch,
):
    """In the parent (serial fallback), crash/hang are suppressed --
    firing them there would turn a recoverable fault into run loss."""
    monkeypatch.setattr(faults, "_in_worker", False)
    faults.configure(FaultPlan((
        FaultSpec(cell="a|g|s", kind="crash"),
        FaultSpec(cell="a|g|s", kind="hang", seconds=60.0),
        FaultSpec(cell="b|g|s", kind="error"),
    )))
    faults.on_attempt("a|g|s", 1)  # would exit or sleep 60s in a worker
    with pytest.raises(InjectedFault):
        faults.on_attempt("b|g|s", 1)


def test_corrupt_entry_truncates_in_place(tmp_path):
    path = tmp_path / "entry.json"
    path.write_bytes(b"0123456789abcdef")
    assert faults.corrupt_entry(path)
    assert path.read_bytes() == b"01234567"
    assert not faults.corrupt_entry(tmp_path / "absent.json")


# --------------------------------------------------------------------- #
# Retry policy
# --------------------------------------------------------------------- #


def test_retry_delay_is_deterministic_and_bounded():
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                         backoff_max=10.0, jitter=0.5)
    d2 = policy.delay("cell-key", 2)
    assert d2 == policy.delay("cell-key", 2)  # no RNG anywhere
    assert 0.075 <= d2 <= 0.125  # base 0.1 +/- 25%
    assert policy.delay("cell-key", 2) != policy.delay("other-key", 2)

    exact = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                        backoff_max=0.3, jitter=0.0)
    assert exact.delay("k", 2) == pytest.approx(0.1)
    assert exact.delay("k", 3) == pytest.approx(0.2)
    assert exact.delay("k", 9) == pytest.approx(0.3)  # capped


def test_retry_policy_validation_and_env(monkeypatch):
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=2.0)

    monkeypatch.setenv("REPRO_MAX_ATTEMPTS", "5")
    monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
    policy = RetryPolicy.from_env()
    assert policy.max_attempts == 5
    assert policy.timeout == 2.5

    monkeypatch.setenv("REPRO_MAX_ATTEMPTS", "banana")
    monkeypatch.setenv("REPRO_CELL_TIMEOUT", "-3")
    policy = RetryPolicy.from_env()
    assert policy.max_attempts == 3  # defaults survive bogus values
    assert policy.timeout is None


# --------------------------------------------------------------------- #
# What crosses the spawn boundary
# --------------------------------------------------------------------- #

#: Every REPRO_* variable a pool worker inherits from its parent.
CARRIED_ENV = (
    "REPRO_OBSLOG", "REPRO_FAULTS", "REPRO_CACHE_DIR", "REPRO_NO_DISK_CACHE",
    "REPRO_CACHE_SWEEP_AGE", "REPRO_SANITIZE", "REPRO_SANITIZE_LOG",
    "REPRO_LOG_LEVEL", "REPRO_TRACE",
)


def _worker_view() -> dict:
    """Pool task: the carried environment and what this worker's code
    derives from it (or from the pool initializer's arguments)."""
    import os
    import sys

    from repro.obs import sanitize, tracing

    plan = faults.active_plan()
    cache = diskcache.active_cache()
    return {
        "env": {name: os.environ.get(name) for name in CARRIED_ENV},
        "obslog": obslog.obslog_path(),
        "faults": plan.to_json() if plan is not None else None,
        "cache_root": str(cache.root) if cache is not None else None,
        "sweep_age": diskcache.sweep_age_seconds(),
        "sanitize": sanitize.installed(),
        "trace": tracing.carried(),
        "log_level": obslog.logger.level,
        "log_on_stderr": [getattr(handler, "stream", None) is sys.stderr
                        for handler in obslog.logger.handlers],
    }


def test_pool_workers_see_what_the_parent_carried(tmp_path, monkeypatch):
    """A spawned broker worker sees each carried variable as the parent
    set it before the pool existed.  Its cache comes from the
    initializer's arguments, so REPRO_CACHE_DIR and REPRO_NO_DISK_CACHE
    never redirect a worker away from the parent's cache."""
    import asyncio

    from repro.obs import sanitize, tracing
    from repro.obs.tracing import SpanContext, new_span_id, new_trace_id

    cache = diskcache.configure(root=tmp_path / "cache", enabled=True)
    context = SpanContext(new_trace_id(), new_span_id())
    values = {
        "REPRO_OBSLOG": str(tmp_path / "obslog.jsonl"),
        "REPRO_CACHE_DIR": str(tmp_path / "elsewhere"),
        "REPRO_NO_DISK_CACHE": "1",
        "REPRO_CACHE_SWEEP_AGE": "123",
        "REPRO_SANITIZE": "1",
        "REPRO_SANITIZE_LOG": str(tmp_path / "sanitize.jsonl"),
        "REPRO_LOG_LEVEL": "DEBUG",
        "REPRO_TRACE": context.encode(),
    }
    for name, value in values.items():
        monkeypatch.setenv(name, value)
    plan = FaultPlan((FaultSpec(cell="none|g|s", kind="error"),))
    faults.configure(plan)  # exports REPRO_FAULTS
    values["REPRO_FAULTS"] = plan.to_json()

    async def scenario():
        broker = broker_module.Broker(jobs=1, paused=True,
                                      policy=chaos_policy())
        await broker.start()
        try:
            pool = await broker._supervisor.acquire()
            return await asyncio.wait_for(
                asyncio.wrap_future(pool.submit(_worker_view)), 60.0)
        finally:
            await broker.stop(drain=False)

    try:
        view = asyncio.run(scenario())
    finally:
        sanitize.uninstall()
    assert view["env"] == {name: values[name] for name in CARRIED_ENV}
    assert view["obslog"] == values["REPRO_OBSLOG"]
    assert view["faults"] == plan.to_json()
    assert view["cache_root"] == str(cache.root)
    assert view["sweep_age"] == 123.0
    assert view["sanitize"] is True
    assert view["trace"] == tracing.carried() == context
    # The worker logs through the parent's stderr handler, at the
    # carried REPRO_LOG_LEVEL.
    assert view["log_level"] == logging.DEBUG
    assert view["log_on_stderr"] == [True]


# --------------------------------------------------------------------- #
# Worker error paths
# --------------------------------------------------------------------- #


def test_worker_trace_errors_name_workload_and_spool(tmp_path,
                                                     monkeypatch):
    spec = parallel.CellSpec("NV-SP", SIMULATED_GPUS["3060-Sim"],
                             "baseline", "f" * 64)
    monkeypatch.setattr(parallel, "_worker_trace_dir", None)
    monkeypatch.setattr(parallel, "_worker_traces", {})
    with pytest.raises(RuntimeError, match="_worker_init"):
        parallel._worker_trace(spec)

    monkeypatch.setattr(parallel, "_worker_trace_dir", tmp_path)
    with pytest.raises(FileNotFoundError) as excinfo:
        parallel._worker_trace(spec)
    message = str(excinfo.value)
    assert "'NV-SP'" in message
    assert str(tmp_path / f"{'f' * 64}.npz") in message


def test_worker_init_refuses_a_foreign_engine_fingerprint(tmp_path,
                                                         monkeypatch):
    """A worker whose engine sources hash differently from its parent's
    (spawned after an edit) refuses to start rather than key results by
    code other than the parent's; its own fingerprint stays its own."""
    monkeypatch.setattr(parallel, "_worker_trace_dir", None)
    monkeypatch.setattr(parallel, "_worker_traces", {})
    # _worker_init also calls faults.mark_worker(); undo that sticky
    # flag so crash/hang faults stay parent-suppressed in later tests.
    monkeypatch.setattr(faults, "_in_worker", faults._in_worker)
    real = diskcache.engine_fingerprint()
    with pytest.raises(RuntimeError, match="engine sources changed"):
        parallel._worker_init(str(tmp_path), None, False, "0" * 64)
    assert diskcache.engine_fingerprint() == real
    assert parallel._worker_trace_dir is None

    parallel._worker_init(str(tmp_path), None, False, real)
    assert parallel._worker_trace_dir == tmp_path


def test_workers_on_other_engine_code_never_write_the_cache(
    fake_registry, tmp_path, monkeypatch,
):
    """The parent keys cells by one engine fingerprint, its workers hash
    another (the sources changed after the parent started): no worker
    writes a result under the parent's keys; every cell runs in-process
    on the parent's code and is still bit-identical to clean serial."""
    serial = serial_baseline(tmp_path, workloads=["P1"])
    log_path = tmp_path / "events.jsonl"
    monkeypatch.setenv(obslog.OBSLOG_ENV, str(log_path))
    monkeypatch.setattr(diskcache, "_engine_fingerprint", "0" * 64)
    metrics = MetricsRegistry()
    cells = run_matrix_parallel(["P1"], STRATEGIES, GPUS, jobs=2,
                                policy=chaos_policy(), metrics=metrics)
    assert cell_tuples(cells) == cell_tuples(serial)

    completed = "repro_service_completed_total"
    assert counted(metrics, completed, source="worker") == 0
    assert counted(metrics, completed, source="inproc") == len(serial)
    parent_keys = {
        diskcache.result_key(SIMULATED_GPUS["3060-Sim"],
                             runner.get_trace("P1"),
                             runner.make_strategy(strategy))
        for strategy in STRATEGIES
    }
    writes = [event for event in obslog.read_events(log_path)
              if event["event"] == "cache.write"]
    assert {event["key"] for event in writes} == parent_keys
    assert {event["pid"] for event in writes} == {__import__("os").getpid()}


def test_a_hang_charges_only_the_hung_cell(fake_registry, tmp_path):
    """A hang past the timeout tears the shared pool down under the
    cells running beside it.  That is one pool incident: the breaker
    counts it once and stays closed, the bystanders rerun their attempt
    uncharged, and only the hung cell is charged (and retried)."""
    import asyncio

    serial = serial_baseline(tmp_path)
    truth = {(c.workload, c.strategy): c.result.to_dict() for c in serial}
    hung = ("P1", "baseline")
    bystanders = [("P1", "ARC-HW"), ("P2", "baseline")]
    faults.configure(FaultPlan((
        FaultSpec(cell="P1|3060-Sim|baseline", kind="hang", seconds=60.0),
        # Submitted 3.5 s after the hung cell, so still running when it
        # times out at 6 s, each well within the timeout itself; the
        # rerun at attempt 1 is as slow again.
        *(FaultSpec(cell=f"{w}|3060-Sim|{s}", kind="hang", seconds=2.8)
          for w, s in bystanders),
    )))
    metrics = MetricsRegistry()
    broker = broker_module.Broker(jobs=3, queue_depth=4, metrics=metrics,
                                  policy=chaos_policy(timeout=6.0))

    def request(cell):
        return broker.submit(SimRequest(cell[0], "3060-Sim", cell[1]))

    async def scenario():
        await broker.start()
        first = asyncio.ensure_future(request(hung))
        await asyncio.sleep(3.5)
        responses = await asyncio.gather(
            first, *(request(cell) for cell in bystanders))
        snapshot = broker.snapshot()
        await broker.stop()
        return responses, snapshot

    responses, snapshot = asyncio.run(scenario())
    for cell, response in zip([hung, *bystanders], responses):
        assert response.result.to_dict() == truth[cell]
    assert snapshot["supervisor"]["breaker"]["state"] == "closed"
    assert snapshot["supervisor"]["breaker"]["trips_total"] == 0
    assert snapshot["supervisor"]["restarts"] == 1
    attempts = "repro_service_attempts_total"
    assert counted(metrics, attempts, outcome="timeout") == 1
    assert counted(metrics, attempts, outcome="crash") == 0
    assert counted(metrics, attempts, outcome="ok") == 3
    assert counted(metrics, "repro_service_failures_total") == 1
    assert counted(metrics, "repro_service_completed_total",
                   source="worker") == 3


def test_cell_spec_identity_matches_fault_addressing(fake_registry):
    specs = plan_cells(["P1"], ["baseline"], GPUS)
    assert [spec.cell_id for spec in specs] == ["P1|3060-Sim|baseline"]


# --------------------------------------------------------------------- #
# Shared-file writes against the declared table (REPRO_SANITIZE)
# --------------------------------------------------------------------- #


def test_iosan_observations_match_static_model(fake_registry, tmp_path,
                                               monkeypatch):
    """The REPRO_SANITIZE I/O shim records every shared-file access a
    faulted parallel run performs, across parent and spawned workers;
    folding those observations into (resource, protocol) pairs must
    give exactly the declared ``SHARED_WRITES`` plus the injected torn
    write.  An undeclared writer and a declared-but-never-exercised
    protocol both fail here."""
    from repro.obs import sanitize
    from repro.obslog import read_events

    serial_baseline(tmp_path)
    log_path = tmp_path / "sanitize.jsonl"
    obslog_path = tmp_path / "obslog.jsonl"
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
    monkeypatch.setenv(sanitize.SANITIZE_LOG_ENV, str(log_path))
    monkeypatch.setenv("REPRO_OBSLOG", str(obslog_path))
    faults.configure(FaultPlan((
        FaultSpec(cell=CORRUPT_CELL, kind="corrupt-cache", times=3),
    )))
    assert sanitize.maybe_install(), "shim must arm when both env vars set"
    try:
        run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                            policy=chaos_policy())
        # Warm rerun quarantines the corrupt entry, exercising the
        # quarantine resource class' atomic-rename writer too.
        faults.configure(None)
        clear_caches()
        warm = run_matrix(WORKLOADS, STRATEGIES, GPUS)
    finally:
        sanitize.uninstall()
    assert not sanitize.installed()
    assert len(warm) == N_CELLS

    cache = diskcache.active_cache()
    assert cache.stats.quarantined == 1
    events = read_events(log_path)
    assert events, "armed shim must record I/O"
    assert len({event["pid"] for event in events}) >= 2, \
        "spawned workers must install their own shim via _worker_init"

    observed = sanitize.observed_protocols(
        events, cache.root, str(obslog_path)
    )
    # The injected torn write (faults.corrupt_entry) is the one unsound
    # protocol, and the shim must see it happen for real; the faulted
    # run and the quarantining rerun exercise every declared writer.
    torn = ("cache-results", sanitize.PROTOCOL_RAW_WRITE)
    assert observed == sanitize.SHARED_WRITES | {torn}, (
        f"undeclared writes: {sorted(observed - sanitize.SHARED_WRITES)}; "
        "declared but unexercised: "
        f"{sorted(sanitize.SHARED_WRITES - observed)}"
    )


def test_iosan_clean_run_uses_only_sound_protocols(fake_registry, tmp_path,
                                                   monkeypatch):
    """Without fault injection, every recorded shared-file write is a
    declared sound one: the raw-write pair is the fault injector's
    doing, not the production stack's."""
    from repro.obs import sanitize
    from repro.obslog import read_events

    serial_baseline(tmp_path)
    log_path = tmp_path / "sanitize.jsonl"
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
    monkeypatch.setenv(sanitize.SANITIZE_LOG_ENV, str(log_path))
    assert sanitize.maybe_install()
    try:
        run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                            policy=chaos_policy())
    finally:
        sanitize.uninstall()

    cache = diskcache.active_cache()
    observed = sanitize.observed_protocols(
        read_events(log_path), cache.root
    )
    unsound = observed - sanitize.SHARED_WRITES
    assert not unsound, f"clean run performed unsound writes: {unsound}"
    assert ("cache-results", sanitize.PROTOCOL_ATOMIC_RENAME) in observed
