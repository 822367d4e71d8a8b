"""Typed request/response surface of the simulation service.

A :class:`SimRequest` names *what* to simulate (workload, GPU, strategy
-- the same coordinates as one experiment-matrix cell) plus *how urgent*
it is (an optional deadline).  The broker answers with a
:class:`ServiceResponse` carrying the :class:`~repro.gpu.stats.SimResult`
and its provenance, or raises one of the typed :class:`ServiceError`
rejections so callers can tell "the service refused" (shed, deadline)
apart from "the simulation failed" without parsing strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.gpu import GPUConfig, SimResult
from repro.obs.tracing import SpanContext

__all__ = [
    "DeadlineExceeded",
    "RequestFailed",
    "RequestShed",
    "ServiceError",
    "ServiceResponse",
    "SimRequest",
]


class ServiceError(RuntimeError):
    """Base of the broker's typed rejections (``kind`` names the class)."""

    kind = "error"


class RequestShed(ServiceError):
    """Admission control rejected the request: the queue is saturated."""

    kind = "shed"

    def __init__(self, cell: str, queue_depth: int):
        super().__init__(
            f"request for cell {cell} shed: admission queue "
            f"(depth {queue_depth}) is saturated"
        )
        self.cell = cell
        self.queue_depth = queue_depth


class DeadlineExceeded(ServiceError):
    """The request's deadline expired before a result was produced."""

    kind = "deadline"

    def __init__(self, cell: str, deadline: "float | None"):
        super().__init__(
            f"request for cell {cell} missed its deadline"
            + (f" of {deadline:g}s" if deadline is not None else "")
        )
        self.cell = cell
        self.deadline = deadline


class RequestFailed(ServiceError):
    """Every execution avenue (retries, fallback) failed for the request."""

    kind = "failed"

    def __init__(self, cell: str, cause: "BaseException | str"):
        super().__init__(
            f"request for cell {cell} failed terminally: {cause!r}"
        )
        self.cell = cell
        self.cause = cause


@dataclass(frozen=True)
class SimRequest:
    """One simulation request: a matrix cell plus an optional deadline.

    ``deadline`` is relative wall-clock seconds from admission; the
    broker propagates the remaining budget into the per-attempt cell
    timeout (:meth:`~repro.experiments.resilience.RetryPolicy.clamped`)
    and fails the request typed (:class:`DeadlineExceeded`) once it is
    spent -- whether the time went to queueing or to execution.

    ``trace_id`` / ``parent_span`` carry the client's span context
    in-band (the daemon lifts them from the JSON protocol's ``trace``
    object): the broker parents its ``svc.request`` span there so one
    trace runs from the client process into the service.  They change
    nothing about what is computed.
    """

    workload: str
    gpu: "str | GPUConfig"
    strategy: str
    deadline: "float | None" = None
    trace_id: "str | None" = None
    parent_span: "str | None" = None

    def __post_init__(self):
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive seconds (or None)")

    def trace_context(self) -> "SpanContext | None":
        if not self.trace_id or not self.parent_span:
            return None
        return SpanContext(self.trace_id, self.parent_span)


@dataclass
class ServiceResponse:
    """A fulfilled request: the result plus how it was produced.

    ``source`` is where the bytes came from: ``"worker"`` (pool
    execution), ``"inproc"`` (serial degradation -- breaker open or
    retries exhausted) or ``"memo"`` (an earlier request for the same
    key completed).  ``coalesced`` marks responses that piggybacked on
    another request's execution.

    ``trace_id`` / ``span_id`` name the broker's ``svc.request`` span
    for this request; ``exec_span_id`` (when the request executed or
    coalesced onto an execution) names the *shared* ``svc.execute``
    span, so N coalesced client traces all point at the one execution
    that served them.
    """

    cell: str
    key: str
    result: SimResult
    source: str
    coalesced: bool = False
    latency_ms: float = 0.0
    trace_id: "str | None" = None
    span_id: "str | None" = None
    exec_span_id: "str | None" = None
    #: The broker memo's ``json.dumps(result.to_dict())``, built once per
    #: completed key and shared by every response served from it.
    #: Private, so outside :meth:`to_dict`: it is derived from ``result``.
    _result_json: "str | None" = field(default=None, repr=False,
                                       compare=False)

    def to_dict(self, _result: object = None) -> dict:
        """The reply object: the head fields, ``result`` and, when a
        client trace context is set, ``trace``.

        *_result* stands in for ``result.to_dict()``: :meth:`to_json`
        passes a placeholder and splices the encoded result over it, so
        this is the one place the reply's fields are listed.
        """
        out = {
            "cell": self.cell,
            "key": self.key,
            "source": self.source,
            "coalesced": self.coalesced,
            "latency_ms": self.latency_ms,
            "result": self.result.to_dict() if _result is None else _result,
        }
        if self.trace_id is not None:
            out["trace"] = {
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "exec_span_id": self.exec_span_id,
            }
        return out

    def to_json(self) -> str:
        """``json.dumps(self.to_dict())``, byte for byte, splicing in
        ``_result_json`` instead of re-encoding the result."""
        if self._result_json is None:
            return json.dumps(self.to_dict())
        # JSON strings escape every '"', so the only unescaped
        # '"result": 0' in the encoding is the placeholder's slot.
        return json.dumps(self.to_dict(0)).replace(
            _RESULT_SLOT, '"result": ' + self._result_json, 1)


#: How ``to_dict(0)`` encodes its placeholder result.
_RESULT_SLOT = '"result": 0'
