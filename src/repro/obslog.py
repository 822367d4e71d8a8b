"""Structured observability logging for the experiment stack.

Two complementary channels:

* :func:`emit` -- an append-only **JSONL event stream** (one JSON object
  per line) recording what the run *did*: cache
  hit/miss/write/quarantine, resume decisions (``cell.skip``),
  and the broker's request lifecycle for daemon requests and parallel
  matrix cells alike (``svc.accept`` / ``svc.attempt`` /
  ``svc.degrade`` / ``svc.breaker`` / ``svc.finish`` and friends from
  :mod:`repro.service`, one line per decision).  The sink
  is a file named by the ``REPRO_OBSLOG`` environment variable (the
  CLI's ``--log`` sets it), which worker processes inherit across
  ``spawn`` -- so one run produces one stream no matter how many
  processes contributed.  Lines are written with a
  single ``O_APPEND`` write each, so concurrent writers interleave at
  line granularity.  With no sink configured, :func:`emit` is a cheap
  no-op: the hot paths (cache lookups) stay unaffected.

* stdlib :mod:`logging` -- human diagnostics.  ``repro``'s logger tree
  writes to **stderr** (``--verbose`` / ``REPRO_LOG_LEVEL`` raise the
  level), while the :data:`console` logger writes bare messages to
  **stdout** -- it carries the CLI's user-facing report lines, so their
  text stays byte-for-byte what ``print`` produced while becoming
  filterable like any logger.  Both handlers resolve ``sys.stdout`` /
  ``sys.stderr`` at emit time, not at handler construction, so
  pytest's ``capsys`` and notebook stream redirection see every line.

Timestamps here are *wall-clock* on purpose: this module records host
execution, not simulation. It must never be imported by the engine
packages (``repro/{core,gpu,trace}``), where ``tests/test_invariants.py``
bans wall-clock reads -- the engine's own time-resolved story is
:mod:`repro.gpu.telemetry`, stamped in simulated cycles.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time

__all__ = [
    "LOG_LEVEL_ENV",
    "OBSLOG_ENV",
    "console",
    "emit",
    "logger",
    "obslog_path",
    "read_events",
    "set_obslog_path",
    "setup_logging",
]

OBSLOG_ENV = "REPRO_OBSLOG"
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"

#: Diagnostics tree (stderr).  Modules log as ``repro.<area>``.
logger = logging.getLogger("repro")

#: User-facing CLI output (stdout, bare messages).  Not a child of
#: ``logger``: its text is product output, not diagnostics.
console = logging.getLogger("repro.cli.console")
console.propagate = False


class _DynamicStreamHandler(logging.StreamHandler):
    """StreamHandler that looks up its stream on *every* emit.

    A plain ``StreamHandler(sys.stderr)`` captures the stream object at
    construction; pytest's ``capsys`` (and anything else that swaps
    ``sys.stderr``) then silently eats or misroutes log lines.  Binding
    to the *name* instead keeps handlers correct under redirection.
    """

    def __init__(self, stream_name: str):
        self._stream_name = stream_name
        super().__init__()

    @property
    def stream(self):
        return getattr(sys, self._stream_name)

    @stream.setter
    def stream(self, value):  # base __init__ assigns; the name wins
        pass


def _level_from_env(verbose: int) -> int:
    """Console diagnostic level: ``REPRO_LOG_LEVEL`` wins, then -v."""
    raw = os.environ.get(LOG_LEVEL_ENV, "").strip().upper()
    if raw:
        named = logging.getLevelName(raw)
        if isinstance(named, int):
            return named
    if verbose >= 2:
        return logging.DEBUG
    if verbose >= 1:
        return logging.INFO
    return logging.WARNING


def setup_logging(verbose: int = 0) -> None:
    """Install the stderr diagnostics and stdout console handlers.

    Idempotent: reruns only adjust levels, so repeated CLI invocations
    in one process (tests) never stack duplicate handlers.
    """
    if not any(isinstance(h, _DynamicStreamHandler) for h in logger.handlers):
        handler = _DynamicStreamHandler("stderr")
        handler.setFormatter(logging.Formatter(
            "%(levelname)s %(name)s: %(message)s"
        ))
        logger.addHandler(handler)
    logger.setLevel(_level_from_env(verbose))

    if not any(isinstance(h, _DynamicStreamHandler)
               for h in console.handlers):
        handler = _DynamicStreamHandler("stdout")
        handler.setFormatter(logging.Formatter("%(message)s"))
        console.addHandler(handler)
    console.setLevel(logging.INFO)


# --------------------------------------------------------------------- #
# JSONL event stream
# --------------------------------------------------------------------- #


def obslog_path() -> "str | None":
    """The active JSONL sink path, or ``None`` when logging is off."""
    raw = os.environ.get(OBSLOG_ENV, "").strip()
    return raw or None


def set_obslog_path(path) -> "str | None":
    """Point the event stream at *path* (``None`` turns it off).

    Works through the environment so ``spawn``-ed worker processes
    inherit the same sink.  Returns the previous value.
    """
    previous = os.environ.get(OBSLOG_ENV)
    if path is None:
        os.environ.pop(OBSLOG_ENV, None)
    else:
        os.environ[OBSLOG_ENV] = str(path)
    return previous


def emit(event: str, *, sink: "str | None" = None, **fields) -> None:
    """Append one event line to the active sink (no-op when off).

    Every line carries the event name, a wall-clock ``ts`` and the
    writing ``pid``; *fields* must be JSON-serializable.  *sink*
    overrides the ``REPRO_OBSLOG`` path (the runtime sanitizer's log,
    :mod:`repro.obs.sanitize`, is written this way).  Failures to
    write are swallowed after one diagnostic -- observability must never
    take down the run it observes.
    """
    path = sink or obslog_path()
    if path is None:
        return
    record = {"event": event, "ts": time.time(), "pid": os.getpid()}
    record.update(fields)
    line = json.dumps(record, sort_keys=True, default=str) + "\n"
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
    except OSError as exc:
        logger.warning("obslog write to %s failed: %r", path, exc)


def read_events(path) -> list[dict]:
    """Parse a JSONL obslog back into event dicts (skipping torn lines).

    A line a concurrent writer tore (no trailing newline at EOF after a
    kill) fails to parse; it is dropped rather than failing the reader.
    A missing file reads as an empty log -- a run that emitted nothing
    simply never created its sink.
    """
    events = []
    try:
        handle = open(path, encoding="utf-8")
    except FileNotFoundError:
        return events
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError:
                continue
    return events
