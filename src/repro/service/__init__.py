"""Simulation-as-a-service: the async facade over the experiment stack.

The packages below :mod:`repro.experiments` know how to execute one
matrix of cells well (spawn pool, disk cache, retries); this
package turns them into a *long-running* service:

* :mod:`repro.service.request`    -- typed requests, responses and
  rejections (:class:`SimRequest`, :class:`ServiceResponse`,
  :class:`RequestShed`, :class:`DeadlineExceeded`, :class:`RequestFailed`);
* :mod:`repro.service.broker`     -- admission control, request
  coalescing, deadline propagation, graceful degradation
  (:class:`Broker`);
* :mod:`repro.service.supervisor` -- pool supervision with a
  circuit breaker and health probes (:class:`PoolSupervisor`,
  :class:`CircuitBreaker`);
* :mod:`repro.service.daemon`     -- the ``repro serve`` unix-socket
  JSON-lines daemon and its client (:class:`ServiceDaemon`,
  :func:`call`).

Everything the service persists flows through the writers
:data:`repro.obs.sanitize.SHARED_WRITES` declares (atomic-rename cache
entries, O_APPEND obslog lines); the service layer itself
opens no shared file.
"""

from repro.service.broker import Broker
from repro.service.daemon import ServiceDaemon, call, default_socket_path
from repro.service.request import (
    DeadlineExceeded,
    RequestFailed,
    RequestShed,
    ServiceError,
    ServiceResponse,
    SimRequest,
)
from repro.service.supervisor import CircuitBreaker, PoolSupervisor

__all__ = [
    "Broker",
    "CircuitBreaker",
    "DeadlineExceeded",
    "PoolSupervisor",
    "RequestFailed",
    "RequestShed",
    "ServiceDaemon",
    "ServiceError",
    "ServiceResponse",
    "SimRequest",
    "call",
    "default_socket_path",
]
