"""Worker-pool supervision: circuit breaker + health-probed respawn.

The broker's spawn pool can fail in two pool-level ways -- a worker
crash (:class:`BrokenProcessPool`) or a hung cell that forces the pool
to be abandoned -- and both are *expensive*: every respawn pays spawn
start-up for ``jobs`` interpreters.  A machine that is out of memory or
has a poisoned environment will fail every respawn the same way, so
blindly respawning per failure turns one sick host into a crash loop.

:class:`CircuitBreaker` implements the classic three-state machine:

* ``closed``    -- normal operation; consecutive pool-level failures are
  counted and reset on any success;
* ``open``      -- ``threshold`` consecutive failures tripped the
  breaker; the pool is abandoned and requests degrade to in-process
  serial execution (the broker's job) until a backoff expires.  The
  backoff grows exponentially with consecutive trips, so a persistently
  sick host is probed ever less often;
* ``half-open`` -- the backoff expired; the next acquisition runs a
  single cheap health probe (:func:`_pool_probe`) on a *fresh* pool.
  Success closes the breaker, failure re-opens it with a doubled
  backoff.

Time comes from an injectable ``clock`` so the chaos suite can walk the
state machine deterministically.  State transitions are published as
``svc.breaker`` obslog events.
"""

from __future__ import annotations

import asyncio
import time
import weakref
from concurrent.futures.process import BrokenProcessPool

from repro import obslog

__all__ = ["CircuitBreaker", "PoolSupervisor"]


def _abandon_pool(pool) -> None:
    """Shut a (possibly broken or hung) pool down without waiting.

    ``cancel_futures`` drains queued work; terminating the worker
    processes frees any stuck in a hung task, which ``shutdown`` alone
    would never reclaim.  The workers are listed *before* the shutdown,
    which drops the executor's reference to them.  (``_processes`` is
    executor-private, hence the defensive ``getattr``: on interpreters
    without it the orphaned worker leaks until its task ends, but the
    caller still proceeds.)
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.terminate()


def _pool_probe() -> str:
    """Worker-side health probe: proves the pool can spawn, receive a
    task and answer.  Reads no globals and no environment -- a probe
    must not depend on any state the spawned interpreter could lack."""
    return "ok"


class CircuitBreaker:
    """Consecutive-failure breaker with exponential probe backoff."""

    def __init__(
        self,
        threshold: int = 3,
        backoff_base: float = 0.25,
        backoff_factor: float = 2.0,
        backoff_max: float = 30.0,
        clock=time.monotonic,
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self._clock = clock
        self._failures = 0   # consecutive pool-level failures
        self._trips = 0      # consecutive trips (resets on success)
        self.open_backoff = 0.0
        self._state = "closed"
        self._open_until = 0.0

    @property
    def state(self) -> str:
        """``closed`` | ``open`` | ``half-open`` (open with backoff spent)."""
        if self._state == "open" and self._clock() >= self._open_until:
            return "half-open"
        return self._state

    def record_failure(self) -> bool:
        """Count one pool-level failure; True when this one tripped it.

        While the breaker is already open (a failed half-open probe
        lands here), the trip is renewed with the next, larger backoff.
        """
        self._failures += 1
        if self._state == "open" or self._failures >= self.threshold:
            self._trip()
            return True
        return False

    def _trip(self) -> None:
        self.open_backoff = min(
            self.backoff_base * self.backoff_factor ** self._trips,
            self.backoff_max,
        )
        self._trips += 1
        self._state = "open"
        self._open_until = self._clock() + self.open_backoff

    def record_success(self) -> None:
        self._failures = 0
        self._trips = 0
        self._state = "closed"

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self._failures,
            "open_backoff": self.open_backoff,
        }


class PoolSupervisor:
    """Owns the broker's spawn pool and mediates access through the
    breaker.

    Dispatchers call :meth:`acquire` before each pool submission; it
    returns the live executor, or ``None`` while the breaker holds
    traffic off the pool (the caller then degrades).  Pool-level
    failures are reported through :meth:`fail`, successes through
    :meth:`ok`.  Trips, restarts and probes are counted only in the
    broker's metrics registry, which :meth:`snapshot` reads back.
    """

    #: Breaker state encoded for the ``repro_service_breaker_state``
    #: gauge (Prometheus wants a number, not a string).
    _STATE_CODES = {"closed": 0, "half-open": 1, "open": 2}

    def __init__(self, pool_factory, *, metrics,
                 breaker: "CircuitBreaker | None" = None,
                 probe_timeout: float = 10.0, clock=time.monotonic,
                 emit=None):
        self._pool_factory = pool_factory
        self.breaker = breaker if breaker is not None else (
            CircuitBreaker(clock=clock)
        )
        self.probe_timeout = probe_timeout
        self._pool = None
        #: Why each abandoned pool was given up (``crash``, ``timeout``,
        #: ``probe`` or ``shutdown``), for dispatchers that report a
        #: failure of a pool that is already gone.
        self._abandoned: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._probe_lock = asyncio.Lock()
        # The broker injects its elapsed_ms-stamping emitter so every
        # svc.* event shares one timing field; standalone supervisors
        # (unit tests) fall back to the raw obslog writer.
        self._emit = emit if emit is not None else obslog.emit
        self._m_state = metrics.gauge(
            "repro_service_breaker_state",
            "Circuit breaker state (0 closed, 1 half-open, 2 open)")
        self._m_trips = metrics.counter(
            "repro_service_breaker_trips_total", "Breaker trips")
        self._m_restarts = metrics.counter(
            "repro_service_pool_restarts_total", "Worker pool respawns")
        self._m_probes = metrics.counter(
            "repro_service_pool_probes_total", "Half-open health probes",
            labelnames=("outcome",))
        self._m_state.set(self._STATE_CODES.get(self.breaker.state, 0))

    def _set_state_gauge(self) -> None:
        self._m_state.set(self._STATE_CODES.get(self.breaker.state, 0))

    def start(self) -> None:
        if self._pool is None:
            self._pool = self._pool_factory()

    async def acquire(self):
        """The live pool, or ``None`` while the breaker is open."""
        state = self.breaker.state
        if state == "closed":
            if self._pool is None:
                self._respawn()
            return self._pool
        if state == "open":
            return None
        # Half-open: exactly one probe decides for everyone waiting.
        async with self._probe_lock:
            if self.breaker.state == "closed":
                return self._pool  # a concurrent probe already healed it
            if self.breaker.state == "open":
                return None  # a concurrent probe already failed
            return await self._probe()

    async def _probe(self):
        self._m_state.set(self._STATE_CODES["half-open"])
        self._emit("svc.breaker", state="half-open",
                   probes=self._m_probes.total() + 1)
        if self._pool is None:
            self._pool = self._pool_factory()
        probe_future = self._pool.submit(_pool_probe)
        try:
            await asyncio.wait_for(
                asyncio.wrap_future(probe_future), self.probe_timeout
            )
        except (asyncio.TimeoutError, BrokenProcessPool, OSError) as exc:
            self._probe_failed(repr(exc))
            return None
        except asyncio.CancelledError:
            if probe_future.cancelled():
                self._probe_failed("probe future cancelled")
                return None
            raise
        self.breaker.record_success()
        self._m_probes.inc(outcome="ok")
        self._set_state_gauge()
        self._emit("svc.breaker", state="closed", reason="probe-ok")
        return self._pool

    def _probe_failed(self, error: str) -> None:
        self._abandon("probe")
        self.breaker.record_failure()
        self._m_probes.inc(outcome="failed")
        self._m_trips.inc()
        self._set_state_gauge()
        self._emit("svc.breaker", state="open", reason="probe-failed",
                   error=error, backoff=self.breaker.open_backoff)

    def fail(self, reason: str, pool) -> str:
        """A dispatcher observed a pool-level failure (crash/timeout) of
        the *pool* it submitted to; returns the incident's reason.

        One incident is counted once per pool.  The first report
        abandons the pool (it is broken or hosts a hung worker either
        way) and counts one breaker failure: while the breaker stays
        closed the pool is respawned at once, and the failure that trips
        it leaves the pool down until a half-open probe heals it.  A
        report about a pool that is already gone -- every other cell
        running on it sees it break -- changes nothing and returns the
        reason that pool was given up for, so the dispatcher can tell a
        worker crash that took its cell down from a pool torn down for
        another cell's hang.
        """
        if pool is not self._pool:
            return self._abandoned.get(pool, "shutdown")
        self._abandon(reason)
        if self.breaker.state != "closed":
            # Already open: concurrent dispatchers reporting the same
            # incident must not extend the backoff.
            return reason
        if self.breaker.record_failure():
            self._m_trips.inc()
            self._set_state_gauge()
            self._emit(
                "svc.breaker", state="open", reason=reason,
                failures=self.breaker.threshold,
                backoff=self.breaker.open_backoff,
            )
        else:
            self._respawn()
        return reason

    def ok(self) -> None:
        self.breaker.record_success()
        self._set_state_gauge()

    def _abandon(self, reason: str) -> None:
        if self._pool is not None:
            self._abandoned[self._pool] = reason
            _abandon_pool(self._pool)
            self._pool = None

    def _respawn(self) -> None:
        self._m_restarts.inc()
        self._emit("svc.pool.restart", restarts=self._m_restarts.total())
        self._pool = self._pool_factory()

    def shutdown(self, terminate: bool = False) -> None:
        """Shut the pool down without waiting; *terminate* also ends its
        worker processes, so cells still running (an interrupted run)
        neither keep the interpreter alive nor finish unobserved."""
        if terminate:
            self._abandon("shutdown")
        elif self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def snapshot(self) -> dict:
        return {
            "breaker": {**self.breaker.snapshot(),
                        "trips_total": self._m_trips.total()},
            "restarts": self._m_restarts.total(),
            "probes": self._m_probes.total(),
            "probe_failures": int(self._m_probes.value(outcome="failed")),
            "pool_live": self._pool is not None,
        }
