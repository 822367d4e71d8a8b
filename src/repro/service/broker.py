"""The request broker: admission control, coalescing, degradation.

One :class:`Broker` fronts one persistent spawn worker pool with the
robustness core of the simulation service.  It is the only code that
drives a worker pool: :func:`~repro.experiments.parallel.
run_matrix_parallel` runs a matrix's cells through a broker of its
own, so both paths share every mechanism below:

* **fingerprinting** -- every request is content-addressed with the PR 1
  cache key (:func:`~repro.experiments.diskcache.result_key`), so "the
  same simulation" is a fact about bytes, not request identity.  The key
  is derived once per (workload, trace content, GPU, strategy) and
  reused for every later request naming that cell;
* **coalescing** -- duplicate in-flight requests attach a waiter to the
  existing execution instead of queueing again; the one result fans out
  to every waiter.  Requests for keys that already completed this
  session are answered from the in-memory memo without queueing at all;
* **admission control** -- new work enters a bounded queue.  When it is
  saturated (or a ``queue-full`` fault says to pretend it is) the
  request is *shed* with a typed :class:`RequestShed`;
* **deadline propagation** -- a request's remaining budget clamps the
  per-attempt cell timeout
  (:meth:`~repro.experiments.resilience.RetryPolicy.clamped`) and
  expires the request typed, whether the time went to queueing or
  execution;
* **supervised execution** -- pool-level failures (crash, timeout) are
  retried with the PR 3 deterministic backoff, reported to the
  :class:`~repro.service.supervisor.PoolSupervisor` (whose breaker may
  take the pool away), and degraded to in-process serial execution
  when the breaker is open or retries are exhausted.  A retry through
  the respawned pool re-enters the worker's disk-cache lookup, so a
  cell whose result was stored before the crash is loaded, not
  re-simulated.  Recovery never changes *what* is computed, so
  responses stay bit-identical to serial runs.

Process safety shapes the I/O: the broker itself performs **no direct
writes** to any shared file.  Results reach the disk cache through the
worker's existing atomic-rename writer, and telemetry goes through
:func:`repro.obslog.emit`'s single ``O_APPEND`` write -- the writers
:data:`repro.obs.sanitize.SHARED_WRITES` declares, so the runtime
sanitizer observes nothing new when the daemon runs under
``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import NamedTuple

from repro import obslog
from repro.experiments import diskcache, faults, parallel, runner
from repro.obs import metrics as obsmetrics
from repro.obs.tracing import Span
from repro.experiments.resilience import RetryPolicy
from repro.gpu import SimResult
from repro.service.request import (
    DeadlineExceeded,
    RequestFailed,
    RequestShed,
    ServiceError,
    ServiceResponse,
    SimRequest,
)
from repro.service.supervisor import CircuitBreaker, PoolSupervisor
from repro.trace.events import KernelTrace
from repro.trace.io import save_trace

__all__ = ["Broker", "STAT_COUNTERS"]

#: ``snapshot()["stats"]`` key -> (registry counter family, help text,
#: label names).  The broker's registry is the only store of these
#: counts; a labelled family's stat is the sum over its series.
STAT_COUNTERS = {
    "requests": ("repro_service_requests_total", "Requests received", ()),
    "admitted": ("repro_service_admitted_total",
                 "Requests admitted to queue", ()),
    "coalesced": ("repro_service_coalesced_total",
                  "Requests coalesced onto an in-flight execution", ()),
    "memo_hits": ("repro_service_memo_hits_total",
                  "Requests answered from the session memo", ()),
    "shed": ("repro_service_shed_total", "Requests shed at admission", ()),
    "degraded": ("repro_service_degraded_total", "Degraded executions",
                 ("reason",)),
    "deadline_misses": ("repro_service_deadline_misses_total",
                        "Requests expired before completion", ()),
    "executions": ("repro_service_executions_total",
                   "Pool attempt submissions", ()),
    "failures": ("repro_service_failures_total", "Failed attempts", ()),
    "completed": ("repro_service_completed_total", "Completed executions",
                  ("source",)),
}


class _Cell(NamedTuple):
    """One resolved cell ``(workload, trace fingerprint, gpu, strategy)``."""

    spec: parallel.CellSpec
    cell: str
    key: str
    trace: KernelTrace


class _Memo(NamedTuple):
    """A completed result and its JSON encoding, built once."""

    result: SimResult
    json: str


@dataclass
class _Entry:
    """One admitted execution: a unique key plus its attached waiters."""

    spec: parallel.CellSpec
    cell: str
    key: str
    #: The trace ``spec.trace_fingerprint`` names, held until completion
    #: so an in-process fallback simulates it even if the workload's
    #: trace is replaced meanwhile.
    trace: KernelTrace
    waiters: list = field(default_factory=list)
    deadlines: list = field(default_factory=list)
    #: Tracing: the admitting request's span context (``ctx``) parents
    #: both the queue-wait span (enqueue -> dispatch) and the shared
    #: execution span (dispatch -> completion), which fans out to every
    #: coalesced waiter.
    ctx: object = None
    queue_span: "Span | None" = None
    exec_span: "Span | None" = None

    def effective_deadline(self) -> "float | None":
        """The most generous waiter deadline (None if any waiter has
        none): execution keeps going as long as *someone* can still be
        answered."""
        if any(deadline is None for deadline in self.deadlines):
            return None
        return max(self.deadlines) if self.deadlines else None


class Broker:
    """Asyncio front door to the experiment stack (one per daemon)."""

    def __init__(
        self,
        *,
        jobs: int = 2,
        queue_depth: int = 16,
        concurrency: "int | None" = None,
        policy: "RetryPolicy | None" = None,
        breaker: "CircuitBreaker | None" = None,
        probe_timeout: float = 10.0,
        clock=time.monotonic,
        paused: bool = False,
        metrics: "obsmetrics.MetricsRegistry | None" = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.jobs = jobs
        self.queue_depth = queue_depth
        self.concurrency = concurrency if concurrency is not None else jobs
        self.policy = policy if policy is not None else RetryPolicy.from_env()
        self.probe_timeout = probe_timeout
        self._breaker = breaker
        self._clock = clock
        self._paused = paused
        self._started = False
        self._stopping = False
        self._inflight: "dict[str, _Entry]" = {}
        self._cells: "dict[tuple, _Cell]" = {}
        self._results: "dict[str, _Memo]" = {}
        self._arrivals: "dict[str, int]" = {}
        self._spooled: "set[str]" = set()
        self._t0 = self._clock()
        #: The store for every service counter and timing.  A fresh
        #: registry per broker keeps ``snapshot()["stats"]`` per-broker;
        #: ``repro serve`` passes the process-wide one.
        self.metrics = (metrics if metrics is not None
                        else obsmetrics.MetricsRegistry())
        self._register_metrics()

    def _register_metrics(self) -> None:
        m = self.metrics
        self._count = {
            key: m.counter(name, help_text, labelnames=labels)
            for key, (name, help_text, labels) in STAT_COUNTERS.items()
        }
        self._m_attempts = m.counter(
            "repro_service_attempts_total", "Attempt outcomes",
            labelnames=("outcome",))
        self._m_queue_depth = m.gauge(
            "repro_service_queue_depth", "Configured queue capacity")
        self._m_queue_size = m.gauge(
            "repro_service_queue_size", "Live queue occupancy")
        self._m_inflight = m.gauge(
            "repro_service_inflight", "In-flight unique executions")
        self._m_deadline_budget = m.histogram(
            "repro_service_deadline_budget_seconds",
            "Deadline budget declared at admission")
        self._m_latency = m.histogram(
            "repro_service_request_latency_seconds",
            "Admission-to-response latency")
        self._m_queue_wait = m.histogram(
            "repro_service_queue_wait_seconds",
            "Enqueue-to-dispatch wait")
        self._m_execute = m.histogram(
            "repro_service_execute_seconds",
            "Dispatch-to-completion execution time")
        self._m_queue_depth.set(self.queue_depth)

    # ----------------------------------------------------------------- #
    # Telemetry plumbing
    # ----------------------------------------------------------------- #

    def emit_event(self, event: str, **fields) -> None:
        """Emit one ``svc.*`` obslog event stamped with ``elapsed_ms``.

        Every service event shares the broker's monotonic clock origin,
        so post-mortem readers can order events without trusting
        wall-clock ``ts`` across processes.  With no sink armed it
        returns before reading the clock.
        """
        if obslog.obslog_path() is None:
            return
        fields.setdefault(
            "elapsed_ms", round((self._clock() - self._t0) * 1000.0, 3)
        )
        obslog.emit(event, **fields)

    def _refresh_gauges(self) -> None:
        self._m_queue_size.set(self._queue.qsize() if self._started else 0)
        self._m_inflight.set(len(self._inflight))

    # ----------------------------------------------------------------- #
    # Lifecycle
    # ----------------------------------------------------------------- #

    async def start(self) -> None:
        """Spin up the queue, dispatchers and worker pool."""
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        self._queue: "asyncio.Queue[_Entry]" = asyncio.Queue(
            maxsize=self.queue_depth
        )
        self._gate = asyncio.Event()
        if not self._paused:
            self._gate.set()
        self._spool = tempfile.TemporaryDirectory(prefix="repro-svc-")
        cache = diskcache.active_cache()
        cache_root = str(cache.root) if cache is not None else None
        spool_dir = self._spool.name

        def pool_factory():
            # Workers check their own engine fingerprint against the
            # parent's: one spawned after an edit to the engine sources
            # must not cache its results under the parent's keys.
            return ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=get_context("spawn"),
                initializer=parallel._worker_init,
                initargs=(spool_dir, cache_root, cache_root is not None,
                          diskcache.engine_fingerprint()),
            )

        self._supervisor = PoolSupervisor(
            pool_factory,
            metrics=self.metrics,
            breaker=self._breaker,
            probe_timeout=self.probe_timeout,
            clock=self._clock,
            emit=self.emit_event,
        )
        self._supervisor.start()
        # One thread suffices for serial degradation: it exists so an
        # in-process simulation does not stall the event loop, not for
        # parallelism.  (Deliberately not a process pool: degradation
        # must survive a machine that cannot spawn.)
        self._inproc = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-svc-inproc"
        )
        self._dispatchers = [
            self._loop.create_task(self._dispatch_loop())
            for _ in range(max(1, self.concurrency))
        ]
        self._started = True
        self._stopping = False
        self.emit_event("svc.start", jobs=self.jobs,
                        queue_depth=self.queue_depth,
                        concurrency=self.concurrency)

    async def stop(self, drain: bool = True) -> None:
        """Stop dispatchers and the pool; optionally drain queued work."""
        if not self._started:
            return
        if drain:
            self.resume()
            await self._queue.join()
        self._stopping = True
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        # An undrained stop can leave cells running: terminate their
        # workers rather than wait on them at interpreter exit.
        self._supervisor.shutdown(terminate=not drain)
        self._inproc.shutdown(wait=False)
        self._spool.cleanup()
        self._started = False
        self.emit_event("svc.stop", **self._stats())

    def pause(self) -> None:
        """Hold dispatchers off the queue (admission keeps running)."""
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()

    # ----------------------------------------------------------------- #
    # Admission
    # ----------------------------------------------------------------- #

    async def submit(self, request: SimRequest) -> ServiceResponse:
        """Admit one request and await its result.

        Everything up to the enqueue (memo lookup, coalescing, admission
        control) happens synchronously before the first ``await``, so
        requests submitted in order are admitted in order -- which is
        what makes coalesce/shed counts deterministic under test.  (The
        tracing wrapper preserves that: ``await`` on a fresh coroutine
        runs it synchronously up to its first real suspension.)

        The whole call is covered by a ``svc.request`` span parented on
        the client-supplied trace context (carried in-band through the
        JSON protocol, never through the environment -- workers snapshot
        env at pool construction).  Tracing changes no control flow, so
        responses stay bit-identical to the tracing-off path.

        Raises :class:`RequestShed`, :class:`DeadlineExceeded` or
        :class:`RequestFailed`.
        """
        if not self._started:
            raise ServiceError("broker is not started")
        req_span = Span("svc.request", parent=request.trace_context(),
                        role="broker")
        try:
            response = await self._submit(request, req_span)
        except RequestShed:
            req_span.end(outcome="shed")
            raise
        except DeadlineExceeded:
            req_span.end(outcome="deadline")
            raise
        except ServiceError as exc:
            req_span.end(outcome="error", error=type(exc).__name__)
            raise
        self._m_latency.observe(response.latency_ms / 1000.0)
        response.trace_id = req_span.context.trace_id
        response.span_id = req_span.context.span_id
        extra = ({"exec_span_id": response.exec_span_id}
                 if response.exec_span_id else {})
        req_span.end(outcome=response.source, cell=response.cell,
                     coalesced=response.coalesced, **extra)
        return response

    def _resolve(self, request: SimRequest) -> _Cell:
        """The request's cell record: built on the first request naming
        its (workload, trace content, GPU, strategy), then reused."""
        gpu = request.gpu
        trace = runner.get_trace(request.workload)
        coord = (request.workload, trace.fingerprint,
                 gpu if isinstance(gpu, str) else gpu.fingerprint(),
                 request.strategy)
        record = self._cells.get(coord)
        if record is not None:
            return record
        config = runner._gpu_by_name(gpu)
        strategy = runner.make_strategy(request.strategy)
        spec = parallel.CellSpec(request.workload, config, request.strategy,
                                 trace.fingerprint)
        # The content address hashes the engine fingerprint, whose
        # source read is process-wide memoized: only the first
        # resolution ever touches disk.
        key = diskcache.result_key(config, trace, strategy)
        record = _Cell(spec, spec.cell_id, key, trace)
        self._cells[coord] = record
        return record

    async def _submit(self, request: SimRequest,
                      req_span: Span) -> ServiceResponse:
        admitted_at = self._clock()
        record = self._resolve(request)
        cell, key = record.cell, record.key
        deadline = (None if request.deadline is None
                    else admitted_at + request.deadline)
        self._count["requests"].inc()
        if request.deadline is not None:
            self._m_deadline_budget.observe(request.deadline)
        self.emit_event("svc.accept", cell=cell, key=key,
                        deadline=request.deadline,
                        trace_id=req_span.context.trace_id)

        memo = self._results.get(key)
        if memo is not None:
            self._count["memo_hits"].inc()
            return self._response(cell, key, memo, "memo", admitted_at)

        entry = self._inflight.get(key)
        if entry is not None:
            waiter = self._loop.create_future()
            entry.waiters.append(waiter)
            entry.deadlines.append(deadline)
            self._count["coalesced"].inc()
            self.emit_event("svc.coalesce", cell=cell, key=key,
                            waiters=len(entry.waiters))
            return await self._await_waiter(
                waiter, cell, key, request.deadline, deadline, admitted_at,
                coalesced=True,
            )

        arrival = self._arrivals.get(cell, 0) + 1
        self._arrivals[cell] = arrival
        # Deliberate chaos hook: a planned loop-block fault sleeps on
        # the loop thread right here, so the suite can prove the runtime
        # loop sanitizer catches the stall.
        faults.on_admission(cell, arrival)
        if self._queue.full() or faults.planned_queue_full(cell, arrival):
            raise self._shed(cell, key, deadline)

        self._ensure_spooled(record.trace)
        entry = _Entry(spec=record.spec, cell=cell, key=key,
                       trace=record.trace)
        entry.ctx = req_span.context
        entry.queue_span = Span("svc.queue_wait", parent=req_span.context,
                                role="broker", cell=cell, key=key)
        waiter = self._loop.create_future()
        entry.waiters.append(waiter)
        entry.deadlines.append(deadline)
        self._inflight[key] = entry
        # Cannot raise QueueFull: occupancy was checked above and no
        # await happened since.
        self._queue.put_nowait(entry)
        self._count["admitted"].inc()
        self._refresh_gauges()
        return await self._await_waiter(
            waiter, cell, key, request.deadline, deadline, admitted_at,
            coalesced=False,
        )

    def _shed(self, cell: str, key: str,
              deadline: "float | None") -> RequestShed:
        """Count and log one shed admission; returns the rejection."""
        self._count["shed"].inc()
        # Post-mortem correlation needs the state *at shed time*: the
        # live occupancy (queue_size; queue_depth is the configured
        # capacity) and how much of the request's budget was left.
        remaining = (None if deadline is None
                     else max(0.0, deadline - self._clock()))
        self.emit_event("svc.shed", cell=cell, key=key,
                        queue_depth=self.queue_depth,
                        queue_size=self._queue.qsize(),
                        deadline_remaining=remaining)
        return RequestShed(cell, self.queue_depth)

    async def _await_waiter(self, waiter, cell: str, key: str,
                            deadline_s: "float | None",
                            deadline: "float | None",
                            admitted_at: float,
                            coalesced: bool) -> ServiceResponse:
        timeout = (None if deadline is None
                   else max(0.0, deadline - self._clock()))
        try:
            memo, source, exec_span_id = await asyncio.wait_for(
                waiter, timeout
            )
        except asyncio.TimeoutError:
            self._count["deadline_misses"].inc()
            self.emit_event("svc.deadline", cell=cell, deadline=deadline_s)
            raise DeadlineExceeded(cell, deadline_s) from None
        response = self._response(cell, key, memo, source, admitted_at)
        response.coalesced = coalesced
        response.exec_span_id = exec_span_id
        return response

    def _response(self, cell: str, key: str, memo: _Memo,
                  source: str, admitted_at: float) -> ServiceResponse:
        latency_ms = (self._clock() - admitted_at) * 1000.0
        return ServiceResponse(
            cell=cell, key=key, result=memo.result, source=source,
            latency_ms=latency_ms, _result_json=memo.json,
        )

    def _ensure_spooled(self, trace) -> None:
        fingerprint = trace.fingerprint
        if fingerprint in self._spooled:
            return
        # Once-per-trace spool write; amortized across every request
        # for that trace and measured in the smoke suite.  The
        # sanitizer still observes it, as a declared LOOP_IO_FRAMES site.
        path = parallel._spool_path(Path(self._spool.name), fingerprint)
        save_trace(trace, path)
        self._spooled.add(fingerprint)

    # ----------------------------------------------------------------- #
    # Dispatch
    # ----------------------------------------------------------------- #

    async def _dispatch_loop(self) -> None:
        while not self._stopping:
            await self._gate.wait()
            entry = await self._queue.get()
            try:
                await self._execute(entry)
            except asyncio.CancelledError:
                self._fail(entry, ServiceError(
                    f"service stopped while executing cell {entry.cell}"
                ))
                raise
            except Exception as exc:  # defensive: a loop must not die
                self._fail(entry, RequestFailed(entry.cell, exc))
            finally:
                self._queue.task_done()

    async def _execute(self, entry: _Entry) -> None:
        if entry.queue_span is not None:
            wait_ms = entry.queue_span.end(queue_size=self._queue.qsize())
            self._m_queue_wait.observe(wait_ms / 1000.0)
            entry.queue_span = None
        parent = entry.ctx
        # One execution span covers every attempt and fans out to every
        # coalesced waiter (its context rides the waiter result tuple).
        entry.exec_span = Span("svc.execute", parent=parent, role="broker",
                               cell=entry.cell, key=entry.key)
        self._refresh_gauges()
        last_error: "BaseException | str" = "no attempt ran"
        attempt = 1
        while attempt <= self.policy.max_attempts:
            deadline = entry.effective_deadline()
            remaining = (None if deadline is None
                         else deadline - self._clock())
            if remaining is not None and remaining <= 0:
                self._count["deadline_misses"].inc()
                self.emit_event("svc.deadline", cell=entry.cell,
                                in_queue=True)
                self._fail(entry, DeadlineExceeded(entry.cell, None))
                return
            policy = self.policy.clamped(remaining)
            attempt_span = Span(
                "svc.attempt", parent=entry.exec_span.context,
                role="broker", cell=entry.cell, attempt=attempt,
            )
            pool = await self._supervisor.acquire()
            if pool is None:
                attempt_span.end(outcome="breaker-open")
                self._m_attempts.inc(outcome="breaker-open")
                await self._degrade_inproc(entry, attempt, "breaker-open")
                return
            self._count["executions"].inc()
            cell_future = None
            # None: the pool was lost under this cell through no fault
            # of its own; it reruns at the same attempt, uncharged.
            outcome = None
            try:
                # submit() itself can raise: a worker crash elsewhere
                # breaks the shared pool between acquire() and here.
                cell_future = pool.submit(
                    parallel._run_spec, entry.spec, attempt
                )
                result = await asyncio.wait_for(
                    asyncio.wrap_future(cell_future), policy.timeout
                )
            except asyncio.TimeoutError:
                cell_future.cancel()
                self._supervisor.fail("timeout", pool)
                last_error = f"attempt exceeded {policy.timeout:g}s"
                outcome = "timeout"
            except asyncio.CancelledError:
                if self._stopping or not cell_future.cancelled():
                    attempt_span.end(outcome="cancelled")
                    raise  # our own task was cancelled (shutdown)
                # The pool was abandoned under us by another dispatcher's
                # failure before this cell started.
            except BrokenProcessPool as exc:
                # A worker crash breaks every cell running on the pool,
                # and any of them may have caused it, so each is charged;
                # a pool torn down for another cell's hang charges none.
                incident = self._supervisor.fail("crash", pool)
                if cell_future is not None and incident == "crash":
                    last_error = exc
                    outcome = "crash"
            except Exception as exc:
                if cell_future is None:
                    # submit() failed before a future existed: the pool
                    # was abandoned by another dispatcher's failure
                    # ("cannot schedule new futures after shutdown") --
                    # a pool-level incident, not a cell failure.
                    self._supervisor.fail("crash", pool)
                else:
                    # Task-level error: the pool answered, so the
                    # breaker sees a healthy pool even though the cell
                    # failed.
                    self._supervisor.ok()
                    last_error = exc
                    outcome = "error"
            else:
                self._supervisor.ok()
                attempt_span.end(outcome="ok")
                self._m_attempts.inc(outcome="ok")
                self._complete(entry, result, "worker")
                return
            if outcome is None:
                attempt_span.end(outcome="requeued")
                continue
            self._count["failures"].inc()
            attempt_span.end(outcome=outcome)
            self._m_attempts.inc(outcome=outcome)
            self.emit_event("svc.attempt", cell=entry.cell, attempt=attempt,
                            outcome=outcome, error=repr(last_error))
            if attempt < self.policy.max_attempts:
                await asyncio.sleep(self.policy.delay(entry.key, attempt + 1))
            attempt += 1
        await self._degrade_inproc(
            entry, self.policy.max_attempts + 1, "retries-exhausted",
            last_error,
        )

    async def _degrade_inproc(self, entry: _Entry, attempt: int,
                              reason: str,
                              last_error: "BaseException | str | None" = None,
                              ) -> None:
        """Serial in-process execution: the service's answer of last
        resort (the paper's own philosophy -- degrade, don't
        fail)."""
        self._count["degraded"].inc(reason=reason)
        self.emit_event("svc.degrade", cell=entry.cell, reason=reason,
                        attempt=attempt)
        try:
            result = await self._loop.run_in_executor(
                self._inproc, parallel._fallback_spec, entry.spec, attempt,
                entry.trace,
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._count["failures"].inc()
            self._fail(entry, RequestFailed(entry.cell, exc))
            return
        self._complete(entry, result, "inproc")

    # ----------------------------------------------------------------- #
    # Completion
    # ----------------------------------------------------------------- #

    def _complete(self, entry: _Entry, result: SimResult,
                  source: str) -> None:
        self._inflight.pop(entry.key, None)
        # Encoded once here; every reply for this key splices the text.
        memo = _Memo(result, json.dumps(result.to_dict()))
        self._results[entry.key] = memo
        self._count["completed"].inc(source=source)
        exec_span_id = None
        if entry.exec_span is not None:
            exec_span_id = entry.exec_span.context.span_id
            exec_ms = entry.exec_span.end(
                outcome="ok", source=source, fanout=len(entry.waiters)
            )
            self._m_execute.observe(exec_ms / 1000.0)
            entry.exec_span = None
        self._refresh_gauges()
        self.emit_event("svc.finish", cell=entry.cell, key=entry.key,
                        source=source, waiters=len(entry.waiters))
        for waiter in entry.waiters:
            if not waiter.done():
                waiter.set_result((memo, source, exec_span_id))

    def _fail(self, entry: _Entry, error: ServiceError) -> None:
        self._inflight.pop(entry.key, None)
        if entry.queue_span is not None:
            entry.queue_span.end(status="error")
            entry.queue_span = None
        if entry.exec_span is not None:
            entry.exec_span.end(
                outcome="fail", kind=getattr(error, "kind", "error"),
                fanout=len(entry.waiters),
            )
            entry.exec_span = None
        self._refresh_gauges()
        self.emit_event("svc.fail", cell=entry.cell, key=entry.key,
                        kind=getattr(error, "kind", "error"),
                        error=str(error))
        for waiter in entry.waiters:
            if not waiter.done():
                waiter.set_exception(error)

    # ----------------------------------------------------------------- #
    # Introspection
    # ----------------------------------------------------------------- #

    def _stats(self) -> dict:
        return {key: counter.total() for key, counter in self._count.items()}

    def snapshot(self) -> dict:
        snap = {
            "jobs": self.jobs,
            "queue": {
                "depth": self.queue_depth,
                "size": self._queue.qsize() if self._started else 0,
            },
            "inflight": len(self._inflight),
            "memoized": len(self._results),
            "stats": self._stats(),
        }
        if self._started:
            snap["supervisor"] = self._supervisor.snapshot()
        return snap
