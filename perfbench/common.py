"""Shared pieces of the benchmark driver: the calibration probe, order
statistics, memory readings, the run's private scratch directory and
process hygiene.

Everything here is standard library only: spawned pool workers
re-import the driver's modules, so nothing at import time may be heavy
or have side effects.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

#: Repository checkout that holds this benchmark (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent

#: Parent of every run's scratch directory; removed again when empty.
SCRATCH_BASE = ROOT / ".perfbench_tmp"

#: The calibration probe: JSON round trips of a fixed reply-shaped
#: object, run while the program is idle.  A probe-normalised second is
#: a wall-clock second scaled by ``PROBE_REF_MS / probe_ms``: the time
#: the same work would take on a host whose probe reads PROBE_REF_MS.
#: The engine and the service soak spend their time on allocation and
#: object churn, which this probe tracks better than an arithmetic loop
#: (see README, Noise).
PROBE_REF_MS = 6.0

PROBE_ROUNDS = 150

_PROBE_OBJECT = {
    "status": "ok", "source": "memo",
    "result": {"kernel": "k" * 20, "cycles": 123456.5,
               "per_batch": list(range(60)),
               "counters": {str(i): i * 0.5 for i in range(20)}},
}


def probe_once(rounds: int = PROBE_ROUNDS) -> float:
    """Wall milliseconds of *rounds* JSON round trips."""
    start = time.perf_counter()
    for _ in range(rounds):
        json.loads(json.dumps(_PROBE_OBJECT))
    return (time.perf_counter() - start) * 1e3


def probe(reps: int = 3) -> float:
    """Median of *reps* probe readings (ms): the host's current speed."""
    return statistics.median(probe_once() for _ in range(reps))


def factor(probe_ms: float, rounds: int = PROBE_ROUNDS) -> float:
    """Multiplier from wall time to probe-normalised time for a probe of
    *rounds* round trips that read *probe_ms*."""
    return PROBE_REF_MS * rounds / PROBE_ROUNDS / probe_ms


def percentile(values, q: float) -> float:
    """Linear-interpolated *q*-th percentile (0-100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def vm_hwm_kib(pid: "int | str" = "self") -> int:
    """Peak resident set (``VmHWM``) of one live process, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def peak_rss_mb(pids=()) -> float:
    """Driver plus *pids* peak resident set, summed, in MiB."""
    return (vm_hwm_kib() + sum(vm_hwm_kib(pid) for pid in pids)) / 1024.0


class Scratch:
    """The run's private directory under the checkout.

    It also becomes the process temp dir (``TMPDIR``, which spawned
    workers inherit), so the broker's spool directories and the disk
    cache's temp files never land outside the checkout.
    """

    def __init__(self):
        SCRATCH_BASE.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_BASE))
        tmp = self.path / "tmp"
        tmp.mkdir()
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = str(tmp)
        self._count = 0

    def fresh_dir(self, label: str) -> Path:
        self._count += 1
        path = self.path / f"{label}-{self._count}"
        path.mkdir()
        return path

    def socket_path(self) -> str:
        """A short relative unix-socket path (sun_path holds 107 bytes)."""
        self._count += 1
        return os.path.relpath(self.path / f"s{self._count}.sock")

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        tempfile.tempdir = None
        os.environ.pop("TMPDIR", None)
        try:
            SCRATCH_BASE.rmdir()
        except OSError:
            pass  # another run still owns a directory there


def fresh_state(scratch: Scratch, traces: dict) -> None:
    """Empty runner memo, re-seeded *traces* and a new, empty disk cache."""
    from repro.experiments import diskcache, runner

    runner.clear_caches()
    diskcache.configure(root=scratch.fresh_dir("cache"), enabled=True)
    for name, trace in traces.items():
        runner.seed_trace(name, trace)


def reap_children(timeout: float = 10.0) -> int:
    """Join every child process; terminate stragglers and count them.

    ``Broker.stop()`` shuts its pool down without waiting, so workers
    may still be exiting when it returns.  Anything alive after
    *timeout* is a leak: it is killed and reported as a failure.
    """
    stragglers = 0
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        # join() can return while the child is still exiting (its
        # sentinel closes before it can be reaped), so poll to the end.
        while child.is_alive() and time.monotonic() < deadline:
            child.join(0.05)
        if child.is_alive():
            stragglers += 1
            child.terminate()
            child.join(5.0)
            if child.is_alive():
                child.kill()
                child.join()
    return stragglers


def stop_resource_tracker() -> None:
    """Stop the spawn start method's resource-tracker helper process.

    It would exit on its own once the driver is gone; stopping it here
    means the driver waits for every process it caused to start.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
