"""Wall-clock request tracing over the obslog event stream.

A **span** is one timed operation with a causal parent: the client's
``repro request`` originates a trace, the daemon threads its context
through the broker (admission, queue wait, execute, per-attempt retry),
and spawn workers pick up the session context from the ``REPRO_TRACE``
environment variable -- the same inheritance path ``REPRO_OBSLOG``
already rides.  Completed spans are emitted as ordinary obslog records
with ``event == "span"``, which buys three properties for free:

* one merged stream across every contributing process (O_APPEND line
  writes), torn-line tolerant via :func:`repro.obslog.read_events`;
* zero new I/O sites: span emission *is* :func:`repro.obslog.emit`,
  which is both in arclint's ARC009-012 static write model and on the
  ARC013 coroutine allowlist -- tracing from broker coroutines is legal
  by construction;
* zero overhead when off: no sink, no record, and :class:`Span` itself
  is two ``perf_counter`` reads.

Trace context crosses process boundaries two ways, deliberately split:

* **Per-request (in-band):** the JSON-lines protocol carries
  ``{"trace": {"trace_id": ..., "span_id": ...}}`` on the ``simulate``
  op; :class:`repro.service.request.SimRequest` forwards it into the
  broker.  Per-request context must *not* travel through the
  environment -- workers snapshot env at pool construction (arclint
  ARC011), so env can only carry session-scoped facts.
* **Per-session (env):** :func:`arm_session` exports one root context
  as ``REPRO_TRACE`` *before* the daemon builds its pool; workers read
  it via :func:`carried` and parent their ``cell.execute`` spans on it.
  ``REPRO_TRACE`` is declared in ``LintConfig.spawn_carry_env``.

Span ids are random (this is the wall-clock domain -- determinism of
*results* is untouched; the chaos suite proves tracing-on bit-identical
to tracing-off).  Timestamps are ``time.time`` starts plus
``perf_counter`` durations, so the stitcher can order spans across
processes while keeping durations monotonic-clock accurate.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro import obslog

__all__ = [
    "TRACE_ENV",
    "SpanContext",
    "Span",
    "arm_session",
    "carried",
    "new_span_id",
    "new_trace_id",
    "span",
]

TRACE_ENV = "REPRO_TRACE"


def new_trace_id() -> str:
    """128-bit random trace id (hex)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """64-bit random span id (hex)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class SpanContext:
    """The propagatable half of a span: which trace, which parent."""

    trace_id: str
    span_id: str

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @staticmethod
    def from_dict(raw) -> "SpanContext | None":
        if not isinstance(raw, dict):
            return None
        trace_id = raw.get("trace_id")
        span_id = raw.get("span_id")
        if not trace_id or not span_id:
            return None
        return SpanContext(str(trace_id), str(span_id))

    def encode(self) -> str:
        return "%s:%s" % (self.trace_id, self.span_id)

    @staticmethod
    def decode(raw: "str | None") -> "SpanContext | None":
        if not raw or ":" not in raw:
            return None
        trace_id, _, span_id = raw.partition(":")
        if not trace_id or not span_id:
            return None
        return SpanContext(trace_id, span_id)


class Span:
    """One in-progress timed operation; emits an obslog record on end.

    Built for the broker's split lifecycles (queue-wait starts in
    ``submit`` and ends in a dispatch task), so start/end are explicit
    calls rather than only a context manager.  ``end`` is idempotent
    and returns the duration in milliseconds whether or not a sink is
    armed -- callers (bench breakdown) use the number even when nothing
    is logged.
    """

    __slots__ = ("name", "context", "parent_id", "attrs",
                 "start_unix", "_t0", "_done", "dur_ms")

    def __init__(self, name: str, parent: "SpanContext | None" = None,
                 trace_id: "str | None" = None, **attrs):
        self.name = name
        tid = trace_id or (parent.trace_id if parent else new_trace_id())
        self.context = SpanContext(tid, new_span_id())
        self.parent_id = parent.span_id if parent else None
        self.attrs = dict(attrs)
        self.start_unix = time.time()
        self._t0 = time.perf_counter()
        self._done = False
        self.dur_ms: "float | None" = None

    def end(self, **attrs) -> float:
        if self._done:
            return self.dur_ms or 0.0
        self._done = True
        self.dur_ms = (time.perf_counter() - self._t0) * 1000.0
        if obslog.obslog_path() is None:
            return self.dur_ms
        self.attrs.update(attrs)
        record = {
            "name": self.name,
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "dur_ms": self.dur_ms,
        }
        record.update(self.attrs)
        obslog.emit("span", **record)
        return self.dur_ms


class span:
    """Context manager sugar over :class:`Span`.

    Marks the span with ``status="error"`` (plus the exception type)
    when the body raises, then re-raises -- tracing never swallows.
    """

    def __init__(self, name: str, parent: "SpanContext | None" = None,
                 trace_id: "str | None" = None, **attrs):
        self._span = Span(name, parent=parent, trace_id=trace_id, **attrs)

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.end(status="error", error=exc_type.__name__)
        else:
            self._span.end()
        return False


def carried() -> "SpanContext | None":
    """The session context inherited through ``REPRO_TRACE``, if any."""
    return SpanContext.decode(os.environ.get(TRACE_ENV))


def arm_session(context: "SpanContext | None" = None) -> SpanContext:
    """Export a session root context for spawn workers to inherit.

    Must run before any worker pool is constructed (workers snapshot
    the environment then -- arclint ARC011 enforces the ordering).
    Idempotent: an already-armed session keeps its context.
    """
    existing = carried()
    if existing is not None:
        return existing
    context = context or SpanContext(new_trace_id(), new_span_id())
    os.environ[TRACE_ENV] = context.encode()
    return context


def disarm_session() -> None:
    """Drop the session context (tests)."""
    os.environ.pop(TRACE_ENV, None)
