"""Chaos suite for the simulation service (broker/supervisor/daemon).

The service's contract extends the execution layer's: admission
decisions (coalesce, shed, degrade) are *deterministic* under ordered
submission, and no recovery or degradation path may ever change what a
request computes.  The acceptance proofs:

* **coalescing fan-out** -- N duplicate in-flight requests produce
  exactly one execution whose result fans out to every waiter,
  bit-identical to a clean serial run;
* **typed load-shedding** -- a saturated (or fault-saturated) queue
  rejects with :class:`RequestShed`, visible in the obslog, and the
  request is admittable again afterwards;
* **graceful degradation** -- an open circuit breaker or exhausted
  retries degrade execution to in-process serial, on the trace the
  request was admitted with;
* **breaker determinism** -- the closed -> open -> half-open -> closed
  cycle is walked deterministically by a fake clock in-unit and by
  crash faults end to end;
* **journal recovery** -- a pool crash re-serves journaled completions
  from the disk cache without re-executing;
* **the load proof** -- >= 1000 requests (>97% duplicates) complete
  bit-identical to serial while planned faults crash workers, hang a
  cell past its timeout and saturate the queue;
* **sanitizer cross-check** -- a REPRO_SANITIZE=1 service run performs no
  shared-file write outside the declared ``sanitize.SHARED_WRITES``.

Pool-driving tests spawn real worker processes; paused-broker admission
tests and the state-machine units stay in-process and cheap.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.experiments import diskcache, faults, runner
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.manifest import RunManifest
from repro.experiments.resilience import RetryPolicy
from repro.experiments.runner import clear_caches, run_matrix, simulate_cell
from repro.gpu import SIMULATED_GPUS
from repro.obslog import read_events
from repro.service import (
    Broker,
    CircuitBreaker,
    DeadlineExceeded,
    RequestShed,
    SimRequest,
)
from repro.trace import coalesced_trace, scattered_trace

GPUS = ["3060-Sim"]


class FakeWorkload:
    """Deterministic synthetic stand-in, sized for service-test speed.

    Each fake needs its own seed: request fingerprints are *content*
    addresses, so two workloads with byte-identical traces are the same
    simulation to the broker (its memo would answer the second one).
    """

    def __init__(self, key, seed, bfly=True):
        self.key = key
        self._seed = seed
        self._bfly = bfly

    def capture_trace(self):
        factory = coalesced_trace if self._bfly else scattered_trace
        return factory(n_batches=150, num_params=4, seed=self._seed,
                       name=self.key)


FAKES = {
    "S1": FakeWorkload("S1", seed=13),
    "S2": FakeWorkload("S2", seed=14, bfly=False),
    "S3": FakeWorkload("S3", seed=15),
    "S4": FakeWorkload("S4", seed=16, bfly=False),
}


@pytest.fixture
def fake_registry(monkeypatch):
    monkeypatch.setattr(runner, "load_workload", lambda key: FAKES[key])
    return FAKES


@pytest.fixture(autouse=True)
def clean_fault_plan():
    faults.configure(None)
    yield
    faults.configure(None)


@pytest.fixture
def obslog_sink(tmp_path, monkeypatch):
    path = tmp_path / "svc-obslog.jsonl"
    monkeypatch.setenv("REPRO_OBSLOG", str(path))
    return path


def fast_policy(timeout=None, attempts=3):
    return RetryPolicy(
        max_attempts=attempts, timeout=timeout,
        backoff_base=0.01, backoff_max=0.05,
    )


def serial_truth(tmp_path, workloads, strategies):
    """Clean uncached serial results; leaves a fresh enabled cache."""
    diskcache.configure(enabled=False)
    serial = run_matrix(workloads, strategies, GPUS)
    clear_caches()
    diskcache.configure(root=tmp_path / "svc-cache", enabled=True)
    return {
        (c.workload, c.gpu, c.strategy): c.result.to_dict() for c in serial
    }


def stats(broker):
    """The broker's session counters, as ``repro serve --status`` shows
    them (read back from its metrics registry)."""
    return broker.snapshot()["stats"]


def events_named(path, name):
    return [e for e in read_events(path) if e["event"] == name]


async def ordered_burst(broker, requests):
    """Submit *requests* in order against a paused broker, then run.

    One scheduler pass admits every request (submission is synchronous
    to its first await) before ``resume`` lets dispatchers at the queue,
    so coalesce/shed arithmetic is exact.
    """
    await broker.start()
    try:
        tasks = [
            asyncio.ensure_future(broker.submit(request))
            for request in requests
        ]
        await asyncio.sleep(0)
        broker.resume()
        return await asyncio.gather(*tasks, return_exceptions=True)
    finally:
        await broker.stop()


# --------------------------------------------------------------------- #
# Coalescing and memoization
# --------------------------------------------------------------------- #


def test_coalescing_fans_out_single_execution(fake_registry, tmp_path,
                                              obslog_sink):
    """Six duplicate requests: one admission, one pool execution, six
    bit-identical responses."""
    truth = serial_truth(tmp_path, ["S1"], ["baseline"])
    broker = Broker(jobs=2, paused=True, policy=fast_policy(),
                    session="coalesce")
    requests = [
        SimRequest(workload="S1", gpu="3060-Sim", strategy="baseline")
        for _ in range(6)
    ]
    responses = asyncio.run(ordered_burst(broker, requests))

    expected = truth[("S1", "3060-Sim", "baseline")]
    assert [r.result.to_dict() for r in responses] == [expected] * 6
    assert responses[0].coalesced is False
    assert all(r.coalesced for r in responses[1:])
    assert stats(broker)["admitted"] == 1
    assert stats(broker)["coalesced"] == 5
    assert stats(broker)["executions"] == 1
    coalesce_events = events_named(obslog_sink, "svc.coalesce")
    assert len(coalesce_events) == 5
    [finish] = events_named(obslog_sink, "svc.finish")
    assert finish["waiters"] == 6
    assert finish["source"] == "worker"


def test_completed_request_answers_from_memo(fake_registry, tmp_path):
    serial_truth(tmp_path, ["S1"], ["baseline"])
    request = SimRequest(workload="S1", gpu="3060-Sim",
                         strategy="baseline")

    async def scenario(broker):
        await broker.start()
        try:
            first = await broker.submit(request)
            second = await broker.submit(request)
            return first, second
        finally:
            await broker.stop()

    broker = Broker(jobs=1, policy=fast_policy(), session="memo")
    first, second = asyncio.run(scenario(broker))
    assert first.source == "worker"
    assert second.source == "memo"
    assert second.result.to_dict() == first.result.to_dict()
    assert stats(broker)["memo_hits"] == 1
    assert stats(broker)["executions"] == 1


def test_replaced_trace_gets_a_new_key_and_executes(fake_registry,
                                                    tmp_path):
    """``runner.seed_trace`` under the same workload name invalidates
    the broker's cell record: the next request resolves the new trace's
    key and executes instead of hitting the memo on the old key, and
    the pool worker simulates the replacement trace, not the one it
    loaded for the first request."""
    truth = serial_truth(tmp_path, ["S1", "S3"], ["baseline"])
    request = SimRequest(workload="S1", gpu="3060-Sim",
                         strategy="baseline")
    replacement = FAKES["S3"].capture_trace()

    async def scenario(broker):
        await broker.start()
        try:
            before = await broker.submit(request)
            runner.seed_trace("S1", replacement)
            after = await broker.submit(request)
            return before, after
        finally:
            await broker.stop()

    broker = Broker(jobs=1, policy=fast_policy(), session="reseed")
    before, after = asyncio.run(scenario(broker))
    assert after.key != before.key
    assert after.key == diskcache.result_key(
        SIMULATED_GPUS["3060-Sim"], replacement,
        runner.make_strategy("baseline"))
    assert after.source == "worker"
    assert after.result.to_dict() == truth[("S3", "3060-Sim", "baseline")]
    assert before.result.to_dict() == truth[("S1", "3060-Sim", "baseline")]
    assert stats(broker)["memo_hits"] == 0
    assert stats(broker)["executions"] == 2


def test_inproc_fallback_simulates_the_admitted_trace(fake_registry,
                                                      tmp_path,
                                                      obslog_sink):
    """A request admitted for S1 whose trace is then replaced by
    ``runner.seed_trace`` before it degrades in process is answered on
    the trace it was admitted with -- the one its key names -- not on
    the replacement."""
    truth = serial_truth(tmp_path, ["S1", "S3"], ["baseline"])
    faults.configure(FaultPlan((
        FaultSpec(cell="S1|3060-Sim|baseline", kind="crash", times=10),
    )))
    request = SimRequest(workload="S1", gpu="3060-Sim",
                         strategy="baseline")
    admitted_trace = runner.get_trace("S1")

    async def scenario(broker):
        await broker.start()
        try:
            pending = asyncio.ensure_future(broker.submit(request))
            await asyncio.sleep(0)
            assert stats(broker)["admitted"] == 1
            runner.seed_trace("S1", FAKES["S3"].capture_trace())
            broker.resume()
            return await pending
        finally:
            await broker.stop()

    broker = Broker(jobs=1, paused=True, policy=fast_policy(attempts=2),
                    breaker=CircuitBreaker(threshold=10),
                    session="fallback-trace")
    response = asyncio.run(scenario(broker))
    assert response.source == "inproc"
    assert response.key == diskcache.result_key(
        SIMULATED_GPUS["3060-Sim"], admitted_trace,
        runner.make_strategy("baseline"))
    assert response.result.to_dict() == truth[("S1", "3060-Sim", "baseline")]
    [degrade] = events_named(obslog_sink, "svc.degrade")
    assert degrade["reason"] == "retries-exhausted"


def test_gpu_config_request_resolves_the_preset_key(fake_registry,
                                                    tmp_path):
    """A request naming its GPU by an equal ``GPUConfig`` object is the
    same simulation as one naming the preset: same key, memo hit."""
    import dataclasses

    serial_truth(tmp_path, ["S1"], ["baseline"])
    config = dataclasses.replace(SIMULATED_GPUS["3060-Sim"])
    by_name = SimRequest(workload="S1", gpu="3060-Sim", strategy="baseline")
    by_config = SimRequest(workload="S1", gpu=config, strategy="baseline")

    async def scenario(broker):
        await broker.start()
        try:
            return (await broker.submit(by_name),
                    await broker.submit(by_config))
        finally:
            await broker.stop()

    broker = Broker(jobs=1, policy=fast_policy(), session="gpuobj")
    first, second = asyncio.run(scenario(broker))
    assert second.key == first.key
    assert second.cell == first.cell
    assert second.source == "memo"
    assert stats(broker)["executions"] == 1


def test_unknown_strategy_raises_on_every_request(fake_registry):
    """A failed resolution is never recorded: the second request for an
    unknown strategy raises exactly like the first."""
    request = SimRequest(workload="S1", gpu="3060-Sim",
                         strategy="warp-magic")

    async def scenario(broker):
        await broker.start()
        try:
            for _ in range(2):
                with pytest.raises(KeyError, match="warp-magic"):
                    await broker.submit(request)
        finally:
            await broker.stop()

    broker = Broker(jobs=1, policy=fast_policy(), session="unknown")
    asyncio.run(scenario(broker))
    assert stats(broker)["requests"] == 0


# --------------------------------------------------------------------- #
# Admission control: shedding, deadlines
# --------------------------------------------------------------------- #


def test_queue_full_fault_sheds_typed_then_readmits(fake_registry,
                                                    tmp_path, obslog_sink):
    """A planned queue-full saturation sheds with the typed rejection;
    the same cell is admittable on its next arrival."""
    truth = serial_truth(tmp_path, ["S1"], ["baseline"])
    faults.configure(FaultPlan((
        FaultSpec(cell="S1|3060-Sim|baseline", kind="queue-full", times=1),
    )))
    request = SimRequest(workload="S1", gpu="3060-Sim",
                         strategy="baseline")

    async def scenario(broker):
        await broker.start()
        try:
            with pytest.raises(RequestShed) as shed:
                await broker.submit(request)
            assert shed.value.kind == "shed"
            return await broker.submit(request)
        finally:
            await broker.stop()

    broker = Broker(jobs=1, policy=fast_policy(), session="shed")
    response = asyncio.run(scenario(broker))
    assert response.result.to_dict() == truth[("S1", "3060-Sim",
                                               "baseline")]
    assert stats(broker)["shed"] == 1
    assert stats(broker)["admitted"] == 1
    [shed_event] = events_named(obslog_sink, "svc.shed")
    assert shed_event["cell"] == "S1|3060-Sim|baseline"
    # Post-mortem fields: configured capacity vs. live occupancy (the
    # fault saturates a genuinely empty queue) and the request's
    # remaining deadline budget (none was set here).
    assert shed_event["queue_depth"] == broker.queue_depth
    assert shed_event["queue_size"] == 0
    assert shed_event["deadline_remaining"] is None


def test_shed_event_records_remaining_deadline_budget(fake_registry,
                                                      tmp_path,
                                                      obslog_sink):
    """A deadline-carrying request shed at admission records how much
    of its budget was still unspent -- the field that separates 'shed
    while fresh' from 'shed after queue-time burned the budget'."""
    serial_truth(tmp_path, ["S1"], ["baseline"])
    faults.configure(FaultPlan((
        FaultSpec(cell="S1|3060-Sim|baseline", kind="queue-full", times=1),
    )))
    request = SimRequest(workload="S1", gpu="3060-Sim",
                         strategy="baseline", deadline=30.0)

    async def scenario(broker):
        await broker.start()
        try:
            with pytest.raises(RequestShed):
                await broker.submit(request)
        finally:
            await broker.stop()

    broker = Broker(jobs=1, policy=fast_policy(), session="shed-budget")
    asyncio.run(scenario(broker))
    [shed_event] = events_named(obslog_sink, "svc.shed")
    assert 0.0 < shed_event["deadline_remaining"] <= 30.0
    assert shed_event["queue_depth"] == broker.queue_depth


def test_real_queue_saturation_sheds(fake_registry, tmp_path):
    """depth-1 queue, two distinct admissions while paused: the second
    is shed by genuine occupancy, not a fault."""
    serial_truth(tmp_path, ["S1", "S2"], ["baseline"])
    broker = Broker(jobs=1, queue_depth=1, paused=True,
                    policy=fast_policy(), session="saturate")
    responses = asyncio.run(ordered_burst(broker, [
        SimRequest(workload="S1", gpu="3060-Sim", strategy="baseline"),
        SimRequest(workload="S2", gpu="3060-Sim", strategy="baseline"),
    ]))
    assert responses[0].source == "worker"
    assert isinstance(responses[1], RequestShed)
    assert stats(broker)["shed"] == 1


def test_deadline_expires_typed_while_queued(fake_registry, tmp_path,
                                             obslog_sink):
    """A paused broker never dispatches: the deadline expires in-queue
    and the waiter gets the typed rejection."""
    serial_truth(tmp_path, ["S1"], ["baseline"])
    request = SimRequest(workload="S1", gpu="3060-Sim",
                         strategy="baseline", deadline=0.15)

    async def scenario(broker):
        await broker.start()
        try:
            with pytest.raises(DeadlineExceeded) as excinfo:
                await broker.submit(request)
            assert excinfo.value.kind == "deadline"
        finally:
            await broker.stop(drain=False)

    broker = Broker(jobs=1, paused=True, policy=fast_policy(),
                    session="deadline")
    asyncio.run(scenario(broker))
    assert stats(broker)["deadline_misses"] >= 1
    assert events_named(obslog_sink, "svc.deadline")


def test_deadline_expires_typed_while_executing(fake_registry, tmp_path,
                                                obslog_sink):
    """A request's deadline bounds its wait on a running cell even when
    the policy sets no per-attempt timeout: a hung worker costs the
    waiter its remaining budget, not the length of the hang."""
    import time

    serial_truth(tmp_path, ["S1"], ["baseline"])
    faults.configure(FaultPlan((
        FaultSpec(cell="S1|3060-Sim|baseline", kind="hang", seconds=5.0),
    )))
    request = SimRequest(workload="S1", gpu="3060-Sim",
                         strategy="baseline", deadline=0.5)

    async def scenario(broker):
        await broker.start()
        try:
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                await broker.submit(request)
            return time.monotonic() - started
        finally:
            await broker.stop(drain=False)

    broker = Broker(jobs=1, policy=fast_policy(timeout=None),
                    session="deadline-exec")
    waited = asyncio.run(scenario(broker))
    assert waited < 2.5, f"waiter outlived its 0.5 s deadline: {waited:.2f}s"
    assert stats(broker)["deadline_misses"] >= 1
    assert events_named(obslog_sink, "svc.deadline")


def test_sim_request_rejects_nonpositive_deadline():
    with pytest.raises(ValueError):
        SimRequest(workload="S1", gpu="3060-Sim", strategy="baseline",
                   deadline=0.0)


# --------------------------------------------------------------------- #
# Circuit breaker and pool supervision
# --------------------------------------------------------------------- #


def test_circuit_breaker_state_machine():
    """closed -> open at the threshold, half-open when the backoff is
    spent, doubled backoff on a failed probe, full reset on success --
    all on a fake clock."""
    now = [0.0]
    breaker = CircuitBreaker(threshold=2, backoff_base=1.0,
                             backoff_factor=2.0, backoff_max=8.0,
                             clock=lambda: now[0])
    assert breaker.state == "closed"
    assert breaker.record_failure() is False
    assert breaker.state == "closed"
    assert breaker.record_failure() is True
    assert breaker.state == "open"
    assert breaker.open_backoff == 1.0
    now[0] = 0.99
    assert breaker.state == "open"
    now[0] = 1.0
    assert breaker.state == "half-open"
    # A failed half-open probe renews the trip with a doubled backoff.
    assert breaker.record_failure() is True
    assert breaker.open_backoff == 2.0
    assert breaker.state == "open"
    now[0] = 3.0
    assert breaker.state == "half-open"
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.trips_total == 2
    # Healing resets the exponential series, not just the state.
    breaker.record_failure()
    assert breaker.record_failure() is True
    assert breaker.open_backoff == 1.0
    # And the backoff is capped.
    for _ in range(10):
        breaker.record_failure()
    assert breaker.open_backoff == 8.0


def test_retry_policy_deadline_clamping():
    policy = RetryPolicy(max_attempts=2, timeout=10.0)
    assert policy.clamped(None) is policy
    assert policy.clamped(3.0).timeout == 3.0
    # A tighter own timeout wins over a looser remaining budget.
    assert policy.clamped(60.0) is policy
    # A spent budget still leaves a positive (minimal) timeout.
    assert RetryPolicy(timeout=None).clamped(-1.0).timeout == 1e-3


def test_breaker_trips_half_opens_and_heals(fake_registry, tmp_path,
                                            obslog_sink):
    """Crash faults trip the breaker deterministically; requests degrade
    in-process while it is open; the half-open probe heals it and
    execution returns to the pool.  Every response stays correct."""
    truth = serial_truth(tmp_path, ["S1", "S2", "S3"], ["baseline"])
    faults.configure(FaultPlan((
        FaultSpec(cell="S1|3060-Sim|baseline", kind="crash", times=3),
    )))

    async def scenario(broker):
        await broker.start()
        try:
            crashed = await broker.submit(SimRequest(
                workload="S1", gpu="3060-Sim", strategy="baseline"
            ))
            opened = broker.snapshot()["supervisor"]["breaker"]
            while_open = await broker.submit(SimRequest(
                workload="S2", gpu="3060-Sim", strategy="baseline"
            ))
            await asyncio.sleep(2.2)  # let the open backoff expire
            healed = await broker.submit(SimRequest(
                workload="S3", gpu="3060-Sim", strategy="baseline"
            ))
            closed = broker.snapshot()["supervisor"]["breaker"]
            return crashed, opened, while_open, healed, closed
        finally:
            await broker.stop()

    broker = Broker(
        jobs=1, concurrency=1, policy=fast_policy(attempts=2),
        breaker=CircuitBreaker(threshold=2, backoff_base=2.0),
        session="breaker",
    )
    crashed, opened, while_open, healed, closed = asyncio.run(
        scenario(broker)
    )

    # Both worker attempts crashed -> trip -> in-process degradation.
    assert crashed.source == "inproc"
    assert opened["state"] in ("open", "half-open")
    assert opened["trips_total"] == 1
    assert while_open.source == "inproc"
    # The probe healed the breaker; execution is back on the pool.
    assert healed.source == "worker"
    assert closed["state"] == "closed"

    for response, workload in ((crashed, "S1"), (while_open, "S2"),
                               (healed, "S3")):
        assert response.result.to_dict() == truth[
            (workload, "3060-Sim", "baseline")
        ], f"degraded path changed the result of {workload}"

    states = [e["state"] for e in events_named(obslog_sink, "svc.breaker")]
    assert "open" in states
    opened_at = states.index("open")
    assert "half-open" in states[opened_at:]
    assert "closed" in states[states.index("half-open", opened_at):]
    degrade_reasons = {
        e["reason"] for e in events_named(obslog_sink, "svc.degrade")
    }
    assert "retries-exhausted" in degrade_reasons
    assert "breaker-open" in degrade_reasons


def test_crash_recovers_journaled_completion_without_reexecuting(
        fake_registry, tmp_path, obslog_sink):
    """A pre-seeded session journal + disk cache answer a crashed
    request from persisted state: zero successful pool executions."""
    serial_truth(tmp_path, ["S1"], ["baseline"])
    cache = diskcache.active_cache()
    config = SIMULATED_GPUS["3060-Sim"]
    trace = runner.get_trace("S1")
    strategy = runner.make_strategy("baseline")
    persisted = simulate_cell(trace, config, strategy)  # stores on disk
    key = diskcache.result_key(config, trace, strategy)
    journal = RunManifest.for_session(cache.root / "manifests", "recov")
    journal.record(key, {"workload": "S1", "gpu": "3060-Sim",
                         "strategy": "baseline"})
    faults.configure(FaultPlan((
        FaultSpec(cell="S1|3060-Sim|baseline", kind="crash", times=10),
    )))

    async def scenario(broker):
        await broker.start()
        try:
            return await broker.submit(SimRequest(
                workload="S1", gpu="3060-Sim", strategy="baseline"
            ))
        finally:
            await broker.stop()

    broker = Broker(jobs=1, policy=fast_policy(), session="recov")
    response = asyncio.run(scenario(broker))
    assert response.source == "journal"
    assert response.result.to_dict() == persisted.to_dict()
    assert stats(broker)["journal_recoveries"] == 1
    assert stats(broker)["executions"] == 1, \
        "recovery must happen on the first crash, not after retries"
    [recover] = events_named(obslog_sink, "svc.recover")
    assert recover["key"] == key


# --------------------------------------------------------------------- #
# The load proof
# --------------------------------------------------------------------- #


def test_thousand_request_chaos_is_bit_identical(fake_registry,
                                                 tmp_path, obslog_sink):
    """>= 1000 requests, > 97% duplicates, while a worker crash, a hang
    past the cell timeout and queue saturation (planned and real) all
    fire: every response is bit-identical to clean serial, each unique
    cell completes exactly once, and shed/degrade are observable."""
    workloads = ["S1", "S2", "S3", "S4"]
    strategies = ["baseline", "ARC-HW"]
    truth = serial_truth(tmp_path, workloads, strategies)
    cells = [(w, s) for w in workloads for s in strategies]
    requests = [
        SimRequest(workload=cells[i % len(cells)][0], gpu="3060-Sim",
                   strategy=cells[i % len(cells)][1])
        for i in range(1000)
    ]
    faults.configure(FaultPlan((
        FaultSpec(cell="S1|3060-Sim|baseline", kind="crash", times=2),
        FaultSpec(cell="S2|3060-Sim|baseline", kind="hang", times=1,
                  seconds=30.0),
        FaultSpec(cell="S3|3060-Sim|baseline", kind="queue-full", times=1),
    )))

    async def resilient_submit(broker, request):
        # Generous budget (~2 min): early arrivals can be shed for as
        # long as the depth-4 queue stays saturated while the faulted
        # pool respawns, which on a loaded machine takes many rounds.
        # The loop exits on first success, so healthy runs never pay it.
        for _ in range(2400):
            try:
                return await broker.submit(request)
            except RequestShed:
                await asyncio.sleep(0.05)
        raise AssertionError(f"{request.workload} shed forever")

    async def scenario(broker):
        await broker.start()
        try:
            tasks = [
                asyncio.ensure_future(resilient_submit(broker, request))
                for request in requests
            ]
            return await asyncio.gather(*tasks)
        finally:
            await broker.stop()

    broker = Broker(
        jobs=2, queue_depth=4, policy=fast_policy(timeout=3.0, attempts=2),
        session="load",
    )
    responses = asyncio.run(scenario(broker))

    assert len(responses) == 1000
    mismatched = [
        r.cell for r, request in zip(responses, requests)
        if r.result.to_dict() != truth[
            (request.workload, "3060-Sim", request.strategy)
        ]
    ]
    assert not mismatched, f"non-bit-identical responses: {mismatched[:5]}"

    counts = stats(broker)
    # Duplicates collapse: every request beyond the eight unique cells
    # (plus shed retries) was answered by coalescing or the memo.
    assert counts["coalesced"] + counts["memo_hits"] >= 990
    assert counts["shed"] >= 1, "planned queue-full must shed at least once"
    assert counts["failures"] >= 2, "crash and hang faults must be seen"
    # Exactly one completed execution per unique cell fans out to all
    # of its duplicates -- the coalescing invariant under chaos.
    finishes = events_named(obslog_sink, "svc.finish")
    finished_cells = [e["cell"] for e in finishes]
    assert sorted(finished_cells) == sorted(
        f"{w}|3060-Sim|{s}" for w, s in cells
    ), "each unique cell must complete exactly once"
    assert events_named(obslog_sink, "svc.shed")
    # Admission accounting closes: every request was admitted, collapsed
    # onto an in-flight execution, memo-answered, or shed (and later
    # retried).  In-process degradation is an *execution* outcome of an
    # admitted entry, so it does not appear in this sum.
    assert counts["requests"] == (counts["admitted"] + counts["coalesced"]
                                  + counts["memo_hits"] + counts["shed"])
    assert counts["admitted"] == len(cells)


#: Result digests (``repro.bench.metrics.sim_digest``) and trace
#: fingerprints of the four cells the retired in-process service bench
#: recorded; the burst below replays its request protocol.
PINNED_BURST_CELLS = {
    "svc-coalesced|3060-Sim|baseline": ("e7d60c0d5f3cc002", "007044c96d6d"),
    "svc-coalesced|3060-Sim|ARC-HW": ("b469bb2f53cc547d", "007044c96d6d"),
    "svc-scattered|3060-Sim|baseline": ("841385f8e56346d4", "e8f9136d2b65"),
    "svc-scattered|3060-Sim|ARC-HW": ("b92b9adc82a4227f", "e8f9136d2b65"),
}


def test_paused_duplicate_burst_counts_and_digests_are_pinned():
    """Four rounds over four cells against a paused broker, the first
    arrival shed by a planned queue-full fault: the admission counts and
    every response's digest match what the retired service bench pinned,
    and duplicates of a cell all carry the same bytes."""
    from repro.bench.metrics import sim_digest

    traces = {
        "svc-coalesced": coalesced_trace(
            n_batches=300, n_slots=256, num_params=4, seed=8,
            name="bench-svc-coalesced"),
        "svc-scattered": scattered_trace(
            n_batches=200, n_slots=1024, num_params=1, seed=9,
            name="bench-svc-scattered"),
    }
    for name, trace in traces.items():
        runner.seed_trace(name, trace)
    cells = [cell.split("|") for cell in PINNED_BURST_CELLS]
    faults.configure(FaultPlan((
        FaultSpec(cell="svc-coalesced|3060-Sim|baseline", kind="queue-full",
                  times=1),
    )))
    broker = Broker(jobs=2, paused=True, policy=fast_policy(),
                    session="pinned-burst")
    requests = [SimRequest(workload=w, gpu=g, strategy=s)
                for _ in range(4) for w, g, s in cells]
    outcomes = asyncio.run(ordered_burst(broker, requests))

    assert sum(isinstance(o, RequestShed) for o in outcomes) == 1
    digests = {}
    for outcome in outcomes:
        if not isinstance(outcome, RequestShed):
            digests.setdefault(outcome.cell, set()).add(
                sim_digest(outcome.result))
    assert digests == {cell: {digest} for cell, (digest, _)
                       in PINNED_BURST_CELLS.items()}
    for cell, (_, fingerprint) in PINNED_BURST_CELLS.items():
        assert traces[cell.split("|")[0]].fingerprint.startswith(fingerprint)
    counts = stats(broker)
    assert (counts["requests"], counts["coalesced"], counts["shed"],
            counts["degraded"], counts["executions"]) == (16, 11, 1, 0, 4)


def test_soak_keeps_broker_state_bounded_by_cells_served(fake_registry,
                                                        tmp_path):
    """10,000 requests in 20 waves over the fake catalog: the broker's
    per-key state never outgrows the distinct cells served, and after
    warm-up the registry adds no family and no series.  The key
    space a daemon can be asked for is the catalog (workloads x
    strategies x GPUs), so this bound, not eviction, is what keeps a
    long-lived daemon's memory flat."""
    diskcache.configure(root=tmp_path / "soak-cache", enabled=True)
    workloads = sorted(FAKES)
    cells = [(w, g, s) for w in workloads for g in ("3060-Sim", "4090-Sim")
             for s in ("baseline", "ARC-HW")]
    waves, per_wave = 20, 500
    broker = Broker(jobs=1, queue_depth=len(cells), policy=fast_policy(),
                    session="soak")

    def state_sizes():
        return {
            "results": len(broker._results),
            "arrivals": len(broker._arrivals),
            "journalled": len(broker._journalled),
            "spooled": len(broker._spooled),
            "inflight": len(broker._inflight),
            "cell_records": len(broker._cells),
        }

    def registry_shape():
        families = broker.metrics.snapshot()
        return len(families), sum(len(f["series"])
                                  for f in families.values())

    async def scenario():
        await broker.start()
        sizes, shapes, answers = [], [], {}
        try:
            for wave in range(waves):
                requests = [
                    SimRequest(workload=w, gpu=g, strategy=s)
                    for w, g, s in (cells[(wave + i) % len(cells)]
                                    for i in range(per_wave))
                ]
                for response in await asyncio.gather(
                        *(broker.submit(r) for r in requests)):
                    answers.setdefault(response.cell, set()).add(
                        json.dumps(response.result.to_dict(),
                                   sort_keys=True))
                sizes.append(state_sizes())
                shapes.append(registry_shape())
        finally:
            await broker.stop()
        return sizes, shapes, answers

    sizes, shapes, answers = asyncio.run(scenario())

    assert len(answers) == len(cells)
    assert all(len(bodies) == 1 for bodies in answers.values()), \
        "memo answers must stay identical to the executed result"
    for wave_sizes in sizes:
        assert max(wave_sizes.values()) <= len(cells), wave_sizes
    assert sizes[-1]["results"] == sizes[-1]["journalled"] == len(cells)
    assert sizes[-1]["inflight"] == 0
    assert sizes[-1]["spooled"] == len(workloads)
    # Warm-up: wave 1 executes every cell, wave 2 is the first answered
    # from the memo; from then on only existing series count up.
    assert shapes[2:] == [shapes[1]] * (waves - 2), \
        "the registry must stop growing once every path has run"
    counts = stats(broker)
    assert counts["requests"] == waves * per_wave
    assert counts["requests"] == (counts["admitted"] + counts["coalesced"]
                                  + counts["memo_hits"] + counts["shed"])
    assert counts["admitted"] == counts["completed"] == len(cells)
    # One cell record per coordinate served, and one encoded result per
    # completed key, kept only in the memo: the runner's in-memory
    # result layer, which nothing in a daemon reads, stays empty.
    assert sizes[-1]["cell_records"] == len(cells)
    encoded = {id(memo.json) for memo in broker._results.values()}
    assert len(encoded) == len(cells)
    assert runner._result_cache == {}


# --------------------------------------------------------------------- #
# Daemon: signal-driven drain over the unix socket
# --------------------------------------------------------------------- #


def test_sigterm_drains_inflight_coalesced_waiters(fake_registry,
                                                   tmp_path, obslog_sink):
    """SIGTERM mid-flight is a clean drain, not an amputation: five
    socket clients coalesced onto one paused cell each get a reply --
    a result or a typed error, never a hang or a dropped connection --
    and the daemon exits only after the broker has drained."""
    import json
    import os
    import signal

    from repro.service.daemon import ServiceDaemon

    truth = serial_truth(tmp_path, ["S1"], ["baseline"])
    socket_path = tmp_path / "svc-drain.sock"

    async def scenario():
        broker = Broker(jobs=1, paused=True, policy=fast_policy(),
                        session="drain")
        daemon = ServiceDaemon(broker, socket_path=socket_path)
        ready = asyncio.Event()
        run_task = asyncio.create_task(daemon.run(ready))
        await asyncio.wait_for(ready.wait(), timeout=10)
        conns = []
        for _ in range(5):
            reader, writer = await asyncio.open_unix_connection(
                str(socket_path)
            )
            writer.write(json.dumps(
                {"op": "simulate", "workload": "S1"}
            ).encode("utf-8") + b"\n")
            await writer.drain()
            conns.append((reader, writer))
        # All five must be in flight (one admission, four coalesced)
        # before the signal lands, so the drain has real waiters.
        for _ in range(500):
            if stats(broker)["admitted"] + stats(broker)["coalesced"] >= 5:
                break
            await asyncio.sleep(0.01)
        assert stats(broker)["admitted"] == 1
        assert stats(broker)["coalesced"] == 4
        # run() must have hooked SIGTERM; the default action would kill
        # the test process instead of draining the daemon.
        assert signal.getsignal(signal.SIGTERM) not in (
            signal.SIG_DFL, None
        )
        os.kill(os.getpid(), signal.SIGTERM)
        replies = []
        for reader, writer in conns:
            line = await asyncio.wait_for(reader.readline(), timeout=120)
            assert line, "waiter must get a reply, not a closed socket"
            replies.append(json.loads(line))
            writer.close()
        await asyncio.wait_for(run_task, timeout=60)
        return replies, broker

    replies, broker = asyncio.run(scenario())
    statuses = {reply["status"] for reply in replies}
    assert statuses <= {"ok", "shed", "deadline", "failed", "error"}, \
        statuses
    # The drain path resumes dispatch, so the coalesced cell actually
    # executes and every waiter sees the bit-identical serial result.
    assert statuses == {"ok"}
    expected = truth[("S1", "3060-Sim", "baseline")]
    assert all(reply["result"] == expected for reply in replies)
    assert sorted(reply["coalesced"] for reply in replies) \
        == [False, True, True, True, True]
    assert stats(broker)["executions"] == 1
    assert not socket_path.exists(), "drained daemon removes its socket"
    assert events_named(obslog_sink, "svc.shutdown")


def test_reply_bytes_match_plain_encoding_for_every_source(
        fake_registry, tmp_path):
    """The daemon splices each memo entry's encoded result into its
    replies.  For every source -- journal, inproc, worker, coalesced,
    memo -- with and without a client trace context, the reply
    line is byte for byte ``json.dumps({"status": "ok",
    **response.to_dict()}) + "\\n"``, and so is a response that carries
    no trace object."""
    import dataclasses

    from repro.service.daemon import ServiceDaemon, _reply_line

    def plain(response):
        return (json.dumps({"status": "ok", **response.to_dict()})
                + "\n").encode("utf-8")

    serial_truth(tmp_path, ["S1", "S2", "S3"], ["baseline", "ARC-HW"])
    rounds = (("baseline", False), ("ARC-HW", True))
    # Journal: S1's completion is persisted before the daemon starts,
    # and every pool attempt at S1 crashes.  Inproc: S3's one pool
    # attempt errors, so it degrades in process.
    cache = diskcache.active_cache()
    config = SIMULATED_GPUS["3060-Sim"]
    journal = RunManifest.for_session(cache.root / "manifests", "bytes")
    plan = []
    for strategy, _ in rounds:
        made = runner.make_strategy(strategy)
        simulate_cell(runner.get_trace("S1"), config, made)
        journal.record(
            diskcache.result_key(config, runner.get_trace("S1"), made),
            {"workload": "S1", "gpu": "3060-Sim", "strategy": strategy})
        plan += [FaultSpec(cell=f"S1|3060-Sim|{strategy}", kind="crash",
                           times=10),
                 FaultSpec(cell=f"S3|3060-Sim|{strategy}", kind="error",
                           times=1)]
    faults.configure(FaultPlan(tuple(plan)))
    socket_path = tmp_path / "svc-bytes.sock"
    broker = Broker(jobs=1, policy=fast_policy(attempts=1),
                    breaker=CircuitBreaker(threshold=10), session="bytes")
    responses = {}
    submit = broker.submit

    async def capture(request):
        response = await submit(request)
        responses[response.span_id] = response
        return response

    broker.submit = capture

    async def call(workload, strategy, traced):
        reader, writer = await asyncio.open_unix_connection(
            str(socket_path))
        payload = {"op": "simulate", "workload": workload,
                   "strategy": strategy}
        if traced:
            payload["trace"] = {"trace_id": "7" * 32, "span_id": "5" * 16}
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        line = await asyncio.wait_for(reader.readline(), timeout=120)
        writer.close()
        await writer.wait_closed()
        return line, traced

    async def scenario():
        daemon = ServiceDaemon(broker, socket_path=socket_path)
        ready = asyncio.Event()
        run_task = asyncio.create_task(daemon.run(ready))
        await asyncio.wait_for(ready.wait(), timeout=10)
        lines = []
        try:
            for strategy, traced in rounds:
                lines.append(await call("S1", strategy, traced))
                lines.append(await call("S3", strategy, traced))
                broker.pause()
                pair = [asyncio.create_task(call("S2", strategy, traced))
                        for _ in range(2)]
                coalesced = stats(broker)["coalesced"] + 1
                for _ in range(500):
                    if stats(broker)["coalesced"] == coalesced:
                        break
                    await asyncio.sleep(0.01)
                broker.resume()
                lines += await asyncio.gather(*pair)
                lines.append(await call("S2", strategy, traced))
        finally:
            daemon.request_shutdown()
            await asyncio.wait_for(run_task, timeout=60)
        return lines

    lines = asyncio.run(scenario())
    seen = set()
    for line, traced in lines:
        reply = json.loads(line)
        assert reply["status"] == "ok", reply
        response = responses[reply["trace"]["span_id"]]
        assert response._result_json is not None, response.source
        assert line == plain(response), response.source
        assert _reply_line(response) == line
        untraced = dataclasses.replace(response, trace_id=None)
        assert _reply_line(untraced) == plain(untraced)
        assert b'"trace"' not in _reply_line(untraced)
        seen.add((response.source, response.coalesced, traced))
    for traced in (False, True):
        for source in ("journal", "inproc", "worker", "memo"):
            assert (source, False, traced) in seen, (source, traced)
        assert ("worker", True, traced) in seen, traced


# --------------------------------------------------------------------- #
# Shared-file writes against the declared table
# --------------------------------------------------------------------- #


def test_service_iosan_writes_match_static_model(fake_registry, tmp_path,
                                                 monkeypatch, obslog_sink):
    """Under REPRO_SANITIZE=1 a service run performs no shared-file
    write outside ``sanitize.SHARED_WRITES``: the daemon layer adds
    observability without adding writer sites."""
    from repro.obs import sanitize

    serial_truth(tmp_path, ["S1", "S2"], ["baseline"])
    log_path = tmp_path / "sanitize.jsonl"
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
    monkeypatch.setenv(sanitize.SANITIZE_LOG_ENV, str(log_path))
    requests = [
        SimRequest(workload=workload, gpu="3060-Sim", strategy="baseline")
        for workload in ("S1", "S2", "S1", "S2", "S1")
    ]
    broker = Broker(jobs=2, paused=True, policy=fast_policy(),
                    session="iosan")
    assert sanitize.maybe_install(), "shim must arm when both env vars set"
    try:
        responses = asyncio.run(ordered_burst(broker, requests))
    finally:
        sanitize.uninstall()
    assert not sanitize.installed()
    assert all(not isinstance(r, BaseException) for r in responses)

    cache = diskcache.active_cache()
    events = read_events(log_path)
    assert events, "armed shim must record I/O"
    assert len({event["pid"] for event in events}) >= 2, \
        "spawned service workers must arm their own shim"
    observed = sanitize.observed_protocols(
        events, cache.root, str(obslog_sink)
    )
    unexplained = observed - sanitize.SHARED_WRITES
    assert not unexplained, (
        f"service runtime writes outside SHARED_WRITES: {sorted(unexplained)}"
    )
    # The three shared files a service run touches, each through its
    # declared sound protocol.
    assert ("cache-results", sanitize.PROTOCOL_ATOMIC_RENAME) in observed
    assert ("manifest", sanitize.PROTOCOL_APPEND) in observed
    assert ("obslog", sanitize.PROTOCOL_APPEND) in observed


# --------------------------------------------------------------------- #
# Observability: tracing, stitched timelines, metrics
# --------------------------------------------------------------------- #


def span_records(path, name=None):
    spans = [e for e in read_events(path) if e["event"] == "span"]
    if name is not None:
        spans = [s for s in spans if s["name"] == name]
    return spans


def test_tracing_armed_chaos_is_bit_identical(fake_registry, tmp_path,
                                              monkeypatch, obslog_sink):
    """Arming the full observability stack -- session root in the env,
    per-request client contexts, metrics registry -- changes *nothing*
    about what a fault-injected burst computes: every response stays
    bit-identical to the clean tracing-off serial baseline, and the
    coalescing fan-out shares exactly one execution span per cell."""
    from repro.obs import tracing
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import SpanContext, new_span_id, new_trace_id

    workloads = ["S1", "S2"]
    strategies = ["baseline", "ARC-HW"]
    # Baseline truth is computed with tracing OFF (no REPRO_TRACE, and
    # spans to an obslog are observation, not computation).
    truth = serial_truth(tmp_path, workloads, strategies)
    monkeypatch.setenv(
        tracing.TRACE_ENV,
        SpanContext(new_trace_id(), new_span_id()).encode(),
    )

    cells = [(w, s) for w in workloads for s in strategies]
    contexts = [SpanContext(new_trace_id(), new_span_id())
                for _ in range(200)]
    requests = [
        SimRequest(workload=cells[i % len(cells)][0], gpu="3060-Sim",
                   strategy=cells[i % len(cells)][1],
                   trace_id=contexts[i].trace_id,
                   parent_span=contexts[i].span_id)
        for i in range(200)
    ]
    faults.configure(FaultPlan((
        FaultSpec(cell="S1|3060-Sim|baseline", kind="crash", times=1),
        FaultSpec(cell="S2|3060-Sim|baseline", kind="queue-full", times=1),
    )))

    async def resilient_submit(broker, request):
        for _ in range(2400):
            try:
                return await broker.submit(request)
            except RequestShed:
                await asyncio.sleep(0.05)
        raise AssertionError(f"{request.workload} shed forever")

    async def scenario(broker):
        await broker.start()
        try:
            tasks = [
                asyncio.ensure_future(resilient_submit(broker, request))
                for request in requests
            ]
            return await asyncio.gather(*tasks)
        finally:
            await broker.stop()

    broker = Broker(jobs=2, queue_depth=4,
                    policy=fast_policy(timeout=3.0, attempts=2),
                    session="traced-load", metrics=MetricsRegistry())
    responses = asyncio.run(scenario(broker))

    mismatched = [
        r.cell for r, request in zip(responses, requests)
        if r.result.to_dict() != truth[
            (request.workload, "3060-Sim", request.strategy)
        ]
    ]
    assert not mismatched, f"tracing changed results: {mismatched[:5]}"

    # Every response joined its client's trace, not a broker-local one.
    for response, context in zip(responses, contexts):
        assert response.trace_id == context.trace_id
        assert response.span_id is not None
    # One *fulfilled* svc.request span per request, parented on the
    # client context.  Shed submissions emit their own outcome="shed"
    # spans and are resubmitted, so those add spans beyond the 200.
    request_spans = span_records(obslog_sink, "svc.request")
    fulfilled = [s for s in request_spans if s.get("outcome") != "shed"]
    assert len(fulfilled) == len(requests)
    assert {s["parent_id"] for s in fulfilled} \
        == {c.span_id for c in contexts}
    assert all(s.get("outcome") == "shed"
               for s in request_spans if s not in fulfilled)
    # Coalescing fan-out: all responses that point at an execution for
    # one cell point at the SAME svc.execute span.
    exec_ids_by_cell: "dict[str, set]" = {}
    for response in responses:
        if response.exec_span_id:
            exec_ids_by_cell.setdefault(response.cell, set()).add(
                response.exec_span_id
            )
    assert exec_ids_by_cell, "executed cells must report exec spans"
    for cell, ids in exec_ids_by_cell.items():
        assert len(ids) == 1, f"{cell} fanned out {len(ids)} exec spans"
    # ...and those ids are real emitted svc.execute spans whose fanout
    # attribute accounts for the waiters they served.
    exec_spans = {s["span_id"]: s
                  for s in span_records(obslog_sink, "svc.execute")}
    for ids in exec_ids_by_cell.values():
        (exec_id,) = ids
        assert exec_id in exec_spans
        assert exec_spans[exec_id]["fanout"] >= 1


def test_stitched_export_holds_full_request_path(fake_registry, tmp_path,
                                                 obslog_sink):
    """One traced request stitches into a single Perfetto timeline:
    client span, broker queue-wait, retry attempts (the fault forces a
    second one) and the engine's sim-time phase spans, all present in
    one traceEvents list with the service spans on their own process."""
    from repro.experiments.runner import make_strategy
    from repro.obs.tracing import Span
    from repro.profiling import capture_timeline, stitch_service_trace

    truth = serial_truth(tmp_path, ["S1"], ["baseline"])
    faults.configure(FaultPlan((
        FaultSpec(cell="S1|3060-Sim|baseline", kind="error", times=1),
    )))

    client_span = Span("client.request", role="client", workload="S1",
                       gpu="3060-Sim", strategy="baseline")
    request = SimRequest(workload="S1", gpu="3060-Sim",
                         strategy="baseline",
                         trace_id=client_span.context.trace_id,
                         parent_span=client_span.context.span_id)
    broker = Broker(jobs=1, policy=fast_policy(), session="stitch")

    async def scenario():
        await broker.start()
        try:
            return await broker.submit(request)
        finally:
            await broker.stop()

    response = asyncio.run(scenario())
    client_span.end(status="ok")
    assert response.result.to_dict() == truth[("S1", "3060-Sim",
                                               "baseline")]

    telemetry = capture_timeline(
        FAKES["S1"].capture_trace(), SIMULATED_GPUS["3060-Sim"],
        make_strategy("baseline"),
    )
    events = read_events(obslog_sink)
    stitched = stitch_service_trace(
        events, trace_id=client_span.context.trace_id,
        telemetry=telemetry,
    )
    service = [e for e in stitched["traceEvents"]
               if e.get("pid") == 100 and e.get("ph") == "X"]
    names = [e["name"] for e in service]
    assert "client.request" in names
    assert "svc.request" in names
    assert "svc.queue_wait" in names
    assert "svc.execute" in names
    # The planned error forces a retry: at least two attempt spans, one
    # errored and one ok.
    attempts = [e for e in service if e["name"] == "svc.attempt"]
    assert len(attempts) >= 2
    outcomes = {a["args"].get("outcome") for a in attempts}
    assert "ok" in outcomes
    # Engine phase spans share the timeline on their own pids.
    engine = [e for e in stitched["traceEvents"]
              if e.get("pid") != 100 and e.get("ph") != "M"]
    assert engine, "sim-time engine events must be stitched in"
    assert stitched["otherData"]["trace_id"] == client_span.context.trace_id
    # The worker's cell.execute span joined the session trace (a
    # different trace id -- the env root), so it is NOT on this
    # timeline; the attempt spans are the per-request view of it.
    assert all(e["name"] != "cell.execute" for e in service)


#: Recorded while the broker still kept a second copy of its counters
#: beside the registry, so the registry-backed snapshot must match.
PINNED_STATUS_SHAPE = {
    "status": "str",
    "snapshot": {
        "session": "str",
        "jobs": "int",
        "queue": {
            "depth": "int",
            "size": "int",
        },
        "inflight": "int",
        "memoized": "int",
        "stats": {
            "requests": "int",
            "admitted": "int",
            "coalesced": "int",
            "memo_hits": "int",
            "shed": "int",
            "degraded": "int",
            "deadline_misses": "int",
            "executions": "int",
            "failures": "int",
            "journal_recoveries": "int",
            "completed": "int",
        },
        "supervisor": {
            "breaker": {
                "state": "str",
                "consecutive_failures": "int",
                "trips_total": "int",
                "open_backoff": "float",
            },
            "restarts": "int",
            "probes": "int",
            "probe_failures": "int",
            "pool_live": "bool",
        },
    },
}
PINNED_STATUS = {
    "status": "ok",
    "snapshot": {
        "session": "metrics",
        "jobs": 1,
        "queue": {
            "depth": 16,
            "size": 0,
        },
        "inflight": 0,
        "memoized": 1,
        "stats": {
            "requests": 6,
            "admitted": 1,
            "coalesced": 4,
            "memo_hits": 0,
            "shed": 1,
            "degraded": 0,
            "deadline_misses": 0,
            "executions": 1,
            "failures": 0,
            "journal_recoveries": 0,
            "completed": 1,
        },
        "supervisor": {
            "breaker": {
                "state": "closed",
                "consecutive_failures": 0,
                "trips_total": 0,
                "open_backoff": 0.0,
            },
            "restarts": 0,
            "probes": 0,
            "probe_failures": 0,
            "pool_live": True,
        },
    },
}
PINNED_SAMPLES = [
    "repro_service_admitted_total 1",
    'repro_service_attempts_total{outcome="ok"} 1',
    "repro_service_breaker_state 0",
    "repro_service_breaker_trips_total 0",
    "repro_service_coalesced_total 4",
    'repro_service_completed_total{source="worker"} 1',
    "repro_service_deadline_misses_total 0",
    "repro_service_execute_seconds_count 1",
    "repro_service_executions_total 1",
    "repro_service_failures_total 0",
    "repro_service_inflight 0",
    "repro_service_journal_recoveries_total 0",
    "repro_service_memo_hits_total 0",
    "repro_service_pool_restarts_total 0",
    "repro_service_queue_depth 16",
    "repro_service_queue_size 0",
    "repro_service_queue_wait_seconds_count 1",
    "repro_service_request_latency_seconds_count 5",
    "repro_service_requests_total 6",
    "repro_service_shed_total 1",
]


def _shape(value):
    """Key set and nesting of a JSON document, leaves as type names."""
    if isinstance(value, dict):
        return {key: _shape(item) for key, item in value.items()}
    return type(value).__name__


def test_metrics_registry_counts_admission_outcomes(fake_registry,
                                                    tmp_path, obslog_sink):
    """Schema pin: six duplicate requests against a paused broker, one
    shed by a planned queue-full fault.  On the live daemon, the
    ``status`` reply (what ``repro serve --status`` prints: key set,
    nesting, leaf types and values) and every timing-free exposition
    line match the recording; the exposition is deterministic 0.0.4
    text with the families CI's smoke job scrapes for."""
    from repro.obs.metrics import MetricsRegistry
    from repro.service.daemon import ServiceDaemon

    serial_truth(tmp_path, ["S1"], ["baseline"])
    faults.configure(FaultPlan((
        FaultSpec(cell="S1|3060-Sim|baseline", kind="queue-full", times=1),
    )))
    registry = MetricsRegistry()
    broker = Broker(jobs=1, paused=True, policy=fast_policy(),
                    session="metrics", metrics=registry)
    daemon = ServiceDaemon(broker)
    requests = [SimRequest(workload="S1", gpu="3060-Sim",
                           strategy="baseline") for _ in range(6)]

    async def scenario():
        await broker.start()
        try:
            tasks = [asyncio.ensure_future(broker.submit(request))
                     for request in requests]
            await asyncio.sleep(0)
            broker.resume()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            status = await daemon._dispatch({"op": "status"})
            metrics = await daemon._dispatch({"op": "metrics"})
            return outcomes, status, metrics["exposition"]
        finally:
            await broker.stop()

    outcomes, status, exposition = asyncio.run(scenario())
    assert sum(isinstance(o, RequestShed) for o in outcomes) == 1
    status = json.loads(json.dumps(status))  # as it crosses the socket
    assert _shape(status) == PINNED_STATUS_SHAPE
    assert status == PINNED_STATUS
    # Counter and gauge samples plus histogram _count lines: every line
    # that does not depend on wall-clock timing.
    samples = [
        line for line in exposition.splitlines()
        if not line.startswith("#")
        and not line.split("{")[0].split(" ")[0].endswith(("_bucket",
                                                           "_sum"))
    ]
    assert samples == PINNED_SAMPLES
    latency = registry.get("repro_service_request_latency_seconds")
    _, lat_sum = latency.counts()
    assert lat_sum > 0

    text = registry.render_prometheus()
    for family in ("repro_service_coalesced_total",
                   "repro_service_shed_total",
                   "repro_service_breaker_state"):
        assert f"# TYPE {family} " in text
    assert registry.render_prometheus() == text


def test_daemon_metrics_op_returns_snapshot_and_exposition(fake_registry):
    """The ``metrics`` op answers with both machine forms -- the JSON
    snapshot and the exact Prometheus text served on --metrics-port."""
    from repro.obs.metrics import MetricsRegistry
    from repro.service.daemon import ServiceDaemon

    broker = Broker(jobs=1, metrics=MetricsRegistry(), session="mop")
    daemon = ServiceDaemon(broker)
    reply = asyncio.run(daemon._dispatch({"op": "metrics"}))
    assert reply["status"] == "ok"
    assert "repro_service_requests_total" in reply["metrics"]
    assert "# TYPE repro_service_requests_total counter" \
        in reply["exposition"]
    assert reply["exposition"] == broker.metrics.render_prometheus()


def test_svc_events_share_one_elapsed_ms_schema(fake_registry, tmp_path,
                                                obslog_sink):
    """Schema pin: every ``svc.*`` event carries a numeric
    ``elapsed_ms`` on the broker's shared clock origin, monotone
    non-decreasing in emission order, and ``svc.shed`` keeps its
    post-mortem fields alongside it."""
    serial_truth(tmp_path, ["S1", "S2"], ["baseline"])
    faults.configure(FaultPlan((
        FaultSpec(cell="S1|3060-Sim|baseline", kind="queue-full", times=1),
    )))
    broker = Broker(jobs=1, paused=True, policy=fast_policy(),
                    session="schema")
    requests = [
        SimRequest(workload=w, gpu="3060-Sim", strategy="baseline")
        for w in ("S1", "S2", "S1", "S2")
    ]
    asyncio.run(ordered_burst(broker, requests))

    svc_events = [e for e in read_events(obslog_sink)
                  if e["event"].startswith("svc.")]
    assert svc_events, "the burst must emit service events"
    for event in svc_events:
        assert isinstance(event.get("elapsed_ms"), (int, float)), \
            f"{event['event']} lacks numeric elapsed_ms: {event}"
    elapsed = [e["elapsed_ms"] for e in svc_events]
    assert elapsed == sorted(elapsed), \
        "one shared clock origin means emission order is elapsed order"
    (shed,) = [e for e in svc_events if e["event"] == "svc.shed"]
    for field in ("queue_depth", "queue_size", "deadline_remaining",
                  "cell", "key"):
        assert field in shed
