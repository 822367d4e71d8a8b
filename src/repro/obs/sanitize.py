"""Runtime sanitizer: record what processes *actually* do to files and
to the event loop, and check it against two declared tables.

The stack's bit-identity claims rest on two disciplines: shared files
(cache entries, the quarantine, the obslog sink) are written only
through a sound protocol, and the service's event loop blocks only
at audited sites.  :data:`SHARED_WRITES` declares the ``(resource
class, write protocol)`` pairs the stack performs, and
:data:`LOOP_IO_FRAMES` the repro frames allowed to do I/O on the loop
thread.  This module records the ground truth those tables are held
against, as the engine's heap-tie assert does for its event order.  With
``REPRO_SANITIZE=1`` and a log path in ``REPRO_SANITIZE_LOG``,
:func:`maybe_install` wraps one table of primitives:

* ``builtins.open`` / ``io.open`` (``pathlib`` I/O and numpy's savez
  spooling land here too), recording path and mode;
* ``os.open``, recording path and flags (the ``O_APPEND`` protocol);
* ``os.replace`` / ``os.rename``, recording destination and source (the
  atomic-rename commit point);
* ``time.sleep`` (the canonical injected stall).

Each primitive hit writes **one** record.  I/O hits always carry ``op``,
``path`` and ``pid`` (plus ``mode``/``flags``/``src``); on a thread
running an event loop the same record also carries the innermost repro
``frame`` on the stack (``module.Qual.name``), the measured
``duration_ms`` and a ``stalled`` verdict against :data:`SLOW_MS`.
Sleeps are recorded only on the loop thread -- worker threads and
executors may block freely, that is what they are for.
:func:`arm_loop` (daemon only) additionally wraps ``asyncio.Handle._run``
to record any callback overrunning the threshold, and aligns the loop's
own ``slow_callback_duration`` with it.

Records go through :func:`repro.obslog.emit`'s ``O_APPEND`` line writer
(a thread-local guard keeps the shim from recording its own writes) and
come back through :func:`repro.obslog.read_events`.  Both env vars travel
across ``spawn``, and the pool initializer calls :func:`maybe_install`,
so parent and worker accesses land in one stream tagged by pid.
:func:`observed_protocols` folds that stream into ``(resource class,
protocol)`` pairs, and :func:`observed_frames` / :func:`stalled_frames`
into blocking frames; the chaos suite asserts each fold against its
table.

``asyncio`` is looked up in ``sys.modules``, never imported: spawn
workers do not load it.
"""

from __future__ import annotations

import builtins
import io
import os
import sys
import threading
import time
from pathlib import Path

from repro import obslog

__all__ = [
    "LOOP_IO_FRAMES",
    "PROTOCOL_APPEND",
    "PROTOCOL_ATOMIC_RENAME",
    "PROTOCOL_BUFFERED_APPEND",
    "PROTOCOL_RAW_WRITE",
    "RESOURCE_CACHE_QUARANTINE",
    "RESOURCE_CACHE_RESULTS",
    "RESOURCE_OBSLOG",
    "SANITIZE_ENV",
    "SANITIZE_LOG_ENV",
    "SHARED_WRITES",
    "SLOW_MS",
    "arm_loop",
    "classify_path",
    "enabled",
    "installed",
    "maybe_install",
    "mode_protocol",
    "observed_frames",
    "observed_protocols",
    "stalled_frames",
    "uninstall",
]

SANITIZE_ENV = "REPRO_SANITIZE"
SANITIZE_LOG_ENV = "REPRO_SANITIZE_LOG"

#: Stall threshold.  100 ms is far above any audited append
#: (microseconds) and far below any injected fault (hundreds of ms), so
#: the ``stalled`` verdict is unambiguous on both sides.
SLOW_MS = 100.0

# Write protocols a recorded write folds into.
PROTOCOL_ATOMIC_RENAME = "atomic-rename"
PROTOCOL_APPEND = "o-append"
PROTOCOL_RAW_WRITE = "raw-write"
PROTOCOL_BUFFERED_APPEND = "buffered-append"

# Shared-resource classes: files several processes write at once.
RESOURCE_CACHE_RESULTS = "cache-results"
RESOURCE_CACHE_QUARANTINE = "cache-quarantine"
RESOURCE_OBSLOG = "obslog"

#: Every shared-file write the stack performs, as (resource class,
#: protocol).  Each class has one writer protocol, and each is sound:
#: readers of an atomic-rename entry see the old or the new file, never
#: a mix, and a single ``write`` to an ``O_APPEND`` descriptor lands
#: whole.  Mixing protocols on one class is not sound either: an append
#: landing between a rewriter's read and its rename is lost.  The one
#: deliberate exception is the chaos suite's torn write
#: (``faults.corrupt_entry``), a ``raw-write`` to ``cache-results``.
SHARED_WRITES = frozenset({
    (RESOURCE_CACHE_RESULTS, PROTOCOL_ATOMIC_RENAME),
    (RESOURCE_CACHE_QUARANTINE, PROTOCOL_ATOMIC_RENAME),
    (RESOURCE_OBSLOG, PROTOCOL_APPEND),
})

#: The audited repro frames that may do I/O on the service's loop
#: thread, as the innermost repro frame :func:`observed_frames` reports.
#: Anything else observed there is a new stall and fails the check.
LOOP_IO_FRAMES = frozenset({
    # A single O_APPEND line: telemetry and spans.
    "repro.obslog.emit",
    # Engine-source hash behind every cell key; memoized per process.
    "repro.experiments.diskcache.engine_fingerprint",
    # Once-per-trace spool write that pool workers load the trace from.
    "repro.trace.io.save_trace",
    # Creating the trace spool directory at startup (a process's first
    # tempfile call also probes the temp directory with a test file).
    "repro.service.broker.Broker.start",
    # The first submit starts the pool's spawn workers (pipe fds).
    "repro.service.broker.Broker._execute",
    # Removing the trace spool directory at shutdown.
    "repro.service.broker.Broker.stop",
    # The chaos suite's deliberate ``loop-block`` fault.
    "repro.experiments.faults.on_admission",
})

#: Top-level directory under the cache root -> resource class.
_CACHE_DIR_RESOURCES = {
    "results": RESOURCE_CACHE_RESULTS,
    "quarantine": RESOURCE_CACHE_QUARANTINE,
}

#: Directory of the ``repro`` package, for frame attribution.
_REPRO_ROOT = str(Path(__file__).resolve().parents[1])
_THIS_FILE = str(Path(__file__).resolve())

#: ``(owner, attribute)`` -> what was bound there before the shim.
_bound: dict = {}
#: Set while the shim writes its own record, so that write is not traced.
_guard = threading.local()


def enabled() -> bool:
    """Whether the shim should interpose in this process."""
    sanitize = os.environ.get(SANITIZE_ENV, "").strip()
    if sanitize in ("", "0"):
        return False
    return bool(os.environ.get(SANITIZE_LOG_ENV, "").strip())


def installed() -> bool:
    return (os, "open") in _bound


# --------------------------------------------------------------------- #
# Recording
# --------------------------------------------------------------------- #


def _on_loop_thread() -> bool:
    asyncio = sys.modules.get("asyncio")
    if asyncio is None:
        return False
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


def _blocking_frame() -> "str | None":
    """Innermost repro frame on the stack, as ``module.Qual.name``.

    This is the frame a stall is *attributed* to: the nearest repro
    code below the primitive, which for ``np.savez_compressed`` is the
    spool writer, not numpy internals.
    """
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename.startswith(_REPRO_ROOT) and filename != _THIS_FILE:
            module = frame.f_globals.get("__name__", "")
            qualname = getattr(
                frame.f_code, "co_qualname", frame.f_code.co_name
            )
            return f"{module}.{qualname}" if module else qualname
        frame = frame.f_back
    return None


def _record(op: str, fields: dict) -> None:
    """Append one record to the sanitizer log through obslog's writer."""
    log_path = os.environ.get(SANITIZE_LOG_ENV, "").strip()
    if not log_path:
        return
    _guard.active = True
    try:
        obslog.emit("sanitize", sink=log_path, op=op, **fields)
    finally:
        _guard.active = False


def _loop_fields(frame, duration_s: float) -> dict:
    duration_ms = duration_s * 1000.0
    return {"frame": frame, "duration_ms": round(duration_ms, 3),
            "stalled": duration_ms >= SLOW_MS}


def _traced(op: str, real, io_fields):
    """Wrap primitive *real*: one record per hit.

    *io_fields* maps the call's arguments to its I/O fields, or to
    ``None`` when the call names no path (``open(fd)``, ``sleep``);
    such hits are recorded only on the loop thread.
    """
    def traced(*args, **kwargs):
        if getattr(_guard, "active", False):
            return real(*args, **kwargs)
        fields = io_fields(*args, **kwargs) if io_fields else None
        on_loop = _on_loop_thread()
        if fields is None and not on_loop:
            return real(*args, **kwargs)
        fields = fields or {}
        frame = _blocking_frame() if on_loop else None
        start = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            if on_loop:
                fields.update(
                    _loop_fields(frame, time.perf_counter() - start)
                )
            _record(op, fields)
    return traced


def _open_fields(file, mode="r", *args, **kwargs):
    if isinstance(file, (str, os.PathLike)):
        return {"path": str(file), "mode": mode}
    return None


def _os_open_fields(path, flags, *args, **kwargs):
    if isinstance(path, (str, os.PathLike)):
        return {"path": str(path), "flags": int(flags)}
    return None


def _move_fields(src, dst, **kwargs):
    return {"path": str(dst), "src": str(src)}


#: The wrapped primitives: (owner, attribute, recorded op, I/O fields).
_TABLE = (
    (builtins, "open", "open", _open_fields),
    (io, "open", "open", _open_fields),
    (os, "open", "os.open", _os_open_fields),
    (os, "replace", "replace", _move_fields),
    (os, "rename", "rename", _move_fields),
    (time, "sleep", "sleep", None),
)


# --------------------------------------------------------------------- #
# Install / uninstall
# --------------------------------------------------------------------- #


def maybe_install() -> bool:
    """Interpose when :func:`enabled`; True when the shim is active.

    Idempotent, and called from both the parent (test harness, daemon)
    and the worker initializer -- ``spawn`` workers re-import this
    module, so each process installs its own shim.
    """
    if not enabled() or installed():
        return installed()
    for owner, name, op, io_fields in _TABLE:
        real = getattr(owner, name)
        _bound[(owner, name)] = real
        setattr(owner, name, _traced(op, real, io_fields))
    return True


def arm_loop(loop) -> float:
    """Track callback overruns on *loop*'s thread; returns the threshold
    in seconds.

    Wraps ``asyncio.Handle._run`` so any callback that held the loop past
    :data:`SLOW_MS` yields one ``callback`` record naming it, whether or
    not a wrapped primitive was the cause, and turns on the loop's debug
    mode with ``slow_callback_duration`` at the same threshold, so
    asyncio's own report agrees with the log.  :func:`uninstall` undoes
    the wrapper.
    """
    import asyncio  # loaded already: the caller runs a loop

    handle = asyncio.Handle
    if (handle, "_run") not in _bound:
        real_run = handle._run
        _bound[(handle, "_run")] = real_run

        def run(self):
            start = time.perf_counter()
            try:
                return real_run(self)
            finally:
                duration = time.perf_counter() - start
                if duration * 1000.0 >= SLOW_MS:
                    callback = getattr(self, "_callback", None)
                    name = getattr(callback, "__qualname__", None) \
                        or repr(callback)
                    _record("callback", {
                        "callback": name,
                        **_loop_fields(None, duration),
                    })

        handle._run = run
    threshold_s = SLOW_MS / 1000.0
    loop.set_debug(True)
    loop.slow_callback_duration = threshold_s
    return threshold_s


def uninstall() -> None:
    """Restore exactly what was bound before install (test cleanup)."""
    for (owner, name), real in _bound.items():
        setattr(owner, name, real)
    _bound.clear()


# --------------------------------------------------------------------- #
# Folding a recorded stream (read with obslog.read_events)
# --------------------------------------------------------------------- #


def mode_protocol(mode: str) -> "str | None":
    """Write protocol of an ``open`` mode string (``None`` for reads)."""
    if any(flag in mode for flag in ("w", "x", "+")):
        return PROTOCOL_RAW_WRITE
    if "a" in mode:
        return PROTOCOL_BUFFERED_APPEND
    return None


def classify_path(
    path: str, cache_root, obslog_path: "str | None"
) -> "str | None":
    """Resource class of *path* (``None`` when it is not shared).

    Writer temp files (``.<prefix>-*.tmp``) classify as ``None``: they
    are the private half of an atomic-rename write, not shared state.
    """
    resolved = Path(path)
    name = resolved.name
    if name.startswith(".") and name.endswith(".tmp"):
        return None
    if obslog_path and str(resolved) == str(Path(obslog_path)):
        return RESOURCE_OBSLOG
    if cache_root is None:
        return None
    try:
        parts = resolved.relative_to(Path(cache_root)).parts
    except ValueError:
        return None
    return _CACHE_DIR_RESOURCES.get(parts[0]) if parts else None


def _protocol_of(event: dict) -> "str | None":
    """Write protocol one recorded event used (``None`` for reads)."""
    op = event.get("op")
    if op in ("replace", "rename"):
        return PROTOCOL_ATOMIC_RENAME
    if op == "os.open" and "flags" in event:
        flags = int(event["flags"])
        if flags & os.O_APPEND:
            return PROTOCOL_APPEND
        if flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC):
            return PROTOCOL_RAW_WRITE
        return None
    if op == "open" and "mode" in event:
        return mode_protocol(str(event["mode"]))
    return None


def observed_protocols(
    events: list[dict], cache_root, obslog_path: "str | None" = None
) -> set[tuple[str, str]]:
    """(resource class, write protocol) pairs a recorded stream shows.

    ``mkstemp``'s ``os.open`` of a dot-tmp file classifies to no
    resource and drops out; the commit is seen at its ``os.replace``.
    """
    observed: set[tuple[str, str]] = set()
    for event in events:
        protocol = _protocol_of(event)
        if protocol is None:
            continue
        resource = classify_path(
            str(event.get("path", "")), cache_root, obslog_path
        )
        if resource is not None:
            observed.add((resource, protocol))
    return observed


def observed_frames(events: list[dict]) -> set[str]:
    """Repro frames observed performing a blocking primitive on the
    loop thread.  ``callback`` records carry no frame (they time the
    whole callback, after the fact) and fold out here, as do off-loop
    records."""
    return {event["frame"] for event in events if event.get("frame")}


def stalled_frames(events: list[dict]) -> set[str]:
    """The subset of observed frames that overran the threshold."""
    return {
        event["frame"] for event in events
        if event.get("frame") and event.get("stalled")
    }
