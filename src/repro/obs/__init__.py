"""Unified observability: wall-clock tracing, service metrics and the
runtime sanitizer.

Three submodules, one story:

* :mod:`repro.obs.tracing` -- request-scoped span model emitted through
  the obslog stream; the ``repro trace`` stitcher
  (:func:`repro.profiling.timeline.stitch_service_trace`) merges these
  wall-clock spans with the engine's sim-time telemetry into one
  Perfetto timeline.
* :mod:`repro.obs.metrics` -- deterministic counter/gauge/histogram
  registry behind the daemon ``metrics`` op and the
  ``repro serve --metrics-port`` Prometheus endpoint.
* :mod:`repro.obs.sanitize` -- the ``REPRO_SANITIZE`` interposition
  shim: one record per file-I/O or sleep hit (with loop-thread timing
  and frame attribution), written and read through obslog, folded into
  observations checked against its two declared tables
  (``SHARED_WRITES``, ``LOOP_IO_FRAMES``).  Not imported here: its
  users (the pool initializer, the daemon) import it directly.

This package adds no shared-file writer and no loop-thread I/O site of
its own: spans and sanitizer records ride :func:`repro.obslog.emit`,
and metric updates are pure in-memory.
"""

from repro.obs import metrics, tracing

__all__ = ["metrics", "tracing"]
