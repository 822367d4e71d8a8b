"""Deterministic fault injection for the experiment execution layer.

The fault-tolerance machinery of the :class:`~repro.service.broker.
Broker` (which also drives parallel matrix runs) is only trustworthy if
every recovery path is *provably* exercised, and the repo's core
invariant -- parallel and cached runs are bit-identical to a
clean serial run -- must survive each of them.  This module injects the
failures those proofs need, at exactly chosen points:

* ``crash``         -- the worker process dies (``os._exit``), which the
  parent observes as a :class:`BrokenProcessPool`;
* ``hang``          -- the worker sleeps past the per-cell timeout;
* ``error``         -- a transient :class:`InjectedFault` is raised,
  exercising bounded retries;
* ``corrupt-cache`` -- the cell's just-written disk-cache entry is
  truncated, exercising quarantine on the next read;
* ``interrupt``     -- a :class:`KeyboardInterrupt` is raised in the
  *parent* after the cell's result is recorded, exercising the clean
  Ctrl-C shutdown and the rerun's resume from the disk cache;
* ``queue-full``    -- the service broker treats its admission queue as
  saturated for the targeted cell's Nth..1st admission attempts,
  exercising load-shedding deterministically (see
  :mod:`repro.service.broker`) without having to win a timing race
  against the dispatchers.
* ``loop-block``    -- the broker's admission path blocks the event loop
  (a plain ``time.sleep`` on the loop thread) for the targeted cell's
  admission, proving the loop-stall check end to end: the runtime
  sanitizer (:mod:`repro.obs.sanitize`) attributes the observed stall
  to this hook's frame, which its ``LOOP_IO_FRAMES`` table declares as
  the one deliberate stall.

The first three double as *service-level* faults: the daemon's workers
run the same task wrapper, so a ``crash`` spec kills a worker mid-request
and a ``hang`` spec turns a request into a slow cell that trips the
deadline/timeout machinery.

Injection is deterministic: a fault targets one cell (by
``workload|gpu|strategy`` identity) and fires on attempts ``1..times``
of that cell, nothing else.  No randomness, no wall-clock conditions --
the same plan against the same matrix injects the same faults.

Plans travel to spawned workers through the ``REPRO_FAULTS`` environment
variable (a JSON document, see :meth:`FaultPlan.from_json`);
:func:`configure` sets both the in-process plan and the variable so
worker processes created afterwards inherit it.  ``crash`` and ``hang``
only ever fire inside worker processes (marked by :func:`mark_worker`):
injecting them into the parent would kill the run they are meant to
prove recoverable.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "FAULTS_ENV",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "cell_id",
    "configure",
    "corrupt_entry",
    "mark_worker",
    "on_admission",
    "on_attempt",
    "on_completed",
    "planned_corruption",
    "planned_queue_full",
]

FAULTS_ENV = "REPRO_FAULTS"

FAULT_KINDS = (
    "crash", "hang", "error", "corrupt-cache", "interrupt", "queue-full",
    "loop-block",
)

#: Worker exit status for an injected crash (distinctive in core dumps /
#: CI logs, and never confusable with a python traceback exit).
CRASH_EXIT_CODE = 23


class InjectedFault(RuntimeError):
    """Transient failure raised by an ``error`` fault."""


def cell_id(workload: str, gpu: str, strategy: str) -> str:
    """Canonical cell identity used to target faults and key reports."""
    return f"{workload}|{gpu}|{strategy}"


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: *kind* at *cell*, on attempts ``1..times``."""

    cell: str
    kind: str
    times: int = 1
    seconds: float = 30.0  # hang duration; ignored by other kinds

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {FAULT_KINDS}"
            )
        if self.times < 1:
            raise ValueError("times must be >= 1")

    def matches(self, cell: str, kind: str, attempt: int) -> bool:
        return (self.cell == cell and self.kind == kind
                and attempt <= self.times)

    def as_dict(self) -> dict:
        return {"cell": self.cell, "kind": self.kind,
                "times": self.times, "seconds": self.seconds}


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of planned faults."""

    specs: "tuple[FaultSpec, ...]" = ()

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        # Accept a bare list of specs as shorthand for {"faults": [...]}:
        # the wrapper object exists for forward compatibility, but a hand
        # typed REPRO_FAULTS almost always starts as a plain list.
        if isinstance(payload, list):
            payload = {"faults": payload}
        specs = []
        for raw in payload.get("faults", []):
            specs.append(FaultSpec(
                cell=raw["cell"],
                kind=raw["kind"],
                times=int(raw.get("times", 1)),
                seconds=float(raw.get("seconds", 30.0)),
            ))
        return cls(tuple(specs))

    def to_json(self) -> str:
        return json.dumps(
            {"faults": [spec.as_dict() for spec in self.specs]},
            sort_keys=True,
        )

    def find(self, cell: str, kind: str, attempt: int) -> "FaultSpec | None":
        for spec in self.specs:
            if spec.matches(cell, kind, attempt):
                return spec
        return None


_plan: "FaultPlan | None" = None
_in_worker = False


def configure(plan: "FaultPlan | None") -> "FaultPlan | None":
    """Install *plan* process-wide and export it to spawned workers.

    ``configure(None)`` clears both the in-process plan and the
    environment variable.  Worker processes created *after* a configure
    call inherit the exported plan; already-running workers keep the one
    they started with.
    """
    global _plan
    _plan = plan
    if plan is None or not plan.specs:
        os.environ.pop(FAULTS_ENV, None)
    else:
        os.environ[FAULTS_ENV] = plan.to_json()
    return _plan


def active_plan() -> "FaultPlan | None":
    """The configured plan, else the one in ``REPRO_FAULTS``, else None."""
    # The parent-written global is a parent-side fast path only; workers
    # intentionally fall through to the REPRO_FAULTS env fallback below,
    # which configure() exports before any pool exists.
    if _plan is not None:
        return _plan
    raw = os.environ.get(FAULTS_ENV, "").strip()
    if not raw:
        return None
    return FaultPlan.from_json(raw)


def mark_worker() -> None:
    """Record that this process is a pool worker (enables crash/hang)."""
    global _in_worker
    _in_worker = True


def on_attempt(cell: str, attempt: int) -> None:
    """Fire any crash/hang/error fault planned for (*cell*, *attempt*).

    Called by the worker-side task wrapper before simulating, and by the
    in-process serial fallback (where crash/hang are suppressed: killing
    or hanging the parent would turn a recoverable fault into run loss).
    """
    plan = active_plan()
    if plan is None:
        return
    if _in_worker and plan.find(cell, "crash", attempt):
        os._exit(CRASH_EXIT_CODE)
    hang = plan.find(cell, "hang", attempt)
    if _in_worker and hang is not None:
        time.sleep(hang.seconds)
    if plan.find(cell, "error", attempt):
        raise InjectedFault(
            f"injected transient fault at cell {cell} (attempt {attempt})"
        )


def planned_corruption(cell: str, attempt: int) -> bool:
    """Whether a ``corrupt-cache`` fault targets (*cell*, *attempt*)."""
    plan = active_plan()
    return plan is not None and (
        plan.find(cell, "corrupt-cache", attempt) is not None
    )


def planned_queue_full(cell: str, arrival: int) -> bool:
    """Whether a ``queue-full`` fault targets *cell*'s *arrival*-th
    admission attempt.

    The broker consults this at admission time, *before* checking real
    queue occupancy: a matching spec sheds that admission, so chaos
    tests and the load benchmark script exact overload counts instead
    of racing the dispatchers into a genuinely full queue.
    """
    plan = active_plan()
    return plan is not None and (
        plan.find(cell, "queue-full", arrival) is not None
    )


def on_admission(cell: str, arrival: int) -> None:
    """Fire any ``loop-block`` fault planned for *cell*'s *arrival*-th
    admission: a deliberate synchronous sleep on the event-loop thread.

    The broker calls this at admission time.  The sleep is exactly the
    bug class the loop must never have, injected on purpose so the
    chaos suite can prove the runtime sanitizer catches it, as a stall
    attributed to this very frame.
    """
    plan = active_plan()
    if plan is None:
        return
    spec = plan.find(cell, "loop-block", arrival)
    if spec is not None:
        time.sleep(spec.seconds)


def corrupt_entry(path: Path) -> bool:
    """Truncate a cache entry to simulate a torn write; True if done."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    # Deliberately unsound: this *is* the torn write the corrupt-cache
    # fault simulates, so the quarantine path gets exercised.
    path.write_bytes(data[: max(1, len(data) // 2)])
    return True


def on_completed(cell: str) -> None:
    """Parent-side hook fired after *cell*'s result has been recorded.

    An ``interrupt`` fault raises :class:`KeyboardInterrupt` here --
    after the worker stored the result and the parent seeded its
    in-memory cache, exactly where a real Ctrl-C between cells would
    land.
    """
    plan = active_plan()
    if plan is not None and plan.find(cell, "interrupt", 1):
        raise KeyboardInterrupt(f"injected interrupt after cell {cell}")
