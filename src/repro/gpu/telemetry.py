"""Opt-in time-resolved instrumentation for the timing engine.

:func:`~repro.gpu.engine.simulate_kernel` accepts an optional
:class:`Telemetry` collector.  When one is supplied, the engine records
*where simulated time went*, not just the end-of-kernel aggregates of
:class:`~repro.gpu.stats.SimResult`:

* **sub-core phase spans** -- per warp batch, one span per phase the
  sub-core moved through: gradient math (``compute``), strategy
  instruction issue (``issue``), blocking on an SM-local unit
  (``local_unit``: LAB buffer / PHI tag service), and waiting for a full
  LSU queue (``lsu_wait``);
* **resource busy intervals** -- LSU queue entries held per SM, ROP-unit
  service per memory partition (with the destination slot, for
  hot-address attribution), interconnect occupancy, and ARC-HW
  reduction-unit busy time per sub-core.

Every stamp is *simulation* time in shader cycles -- the collector never
reads a wall clock (tests/test_invariants.py bans one in the engine
packages) -- so recording is deterministic and the
engine's event order, results and ``SimResult`` output are bit-identical
with telemetry on or off.  The collector is deliberately dumb: plain
list appends on the hot path, no binning, no derived state.  Exporters
and summaries (Perfetto trace-event JSON, compact NPZ/JSON timelines,
occupancy statistics) live in :mod:`repro.profiling.timeline`, outside
the engine packages.

With ``telemetry=None`` (the default) the engine pays one predicate test
per instrumentation point and allocates nothing, which keeps the hot
path within noise of the uninstrumented engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.base import AtomicStrategy
    from repro.gpu.config import GPUConfig
    from repro.gpu.stats import SimResult
    from repro.trace.events import KernelTrace

__all__ = ["PHASES", "Telemetry"]

#: Sub-core phase names, in the order a batch moves through them.
PHASES = ("compute", "issue", "local_unit", "lsu_wait")


class Telemetry:
    """Collects per-batch spans and resource busy intervals.

    All times are simulated shader cycles.  The record layouts are plain
    tuples (documented per attribute) so the engine's appends stay cheap;
    :meth:`as_dict` converts to a JSON-friendly structure for exporters.
    """

    __slots__ = ("meta", "spans", "lsu_intervals", "rop_intervals",
                 "ic_intervals", "ru_intervals")

    def __init__(self) -> None:
        #: Simulation identity and topology, filled by :meth:`attach` /
        #: :meth:`finish`.
        self.meta: dict = {}
        #: ``(subcore, warp, batch, phase, start, end)`` per batch phase.
        self.spans: list[tuple] = []
        #: ``(sm, start, end)`` -- one LSU queue entry held on *sm*.
        self.lsu_intervals: list[tuple] = []
        #: ``(partition, slot, rop_ops, start, end)`` -- one transaction
        #: serviced by a ROP unit of *partition*.
        self.rop_intervals: list[tuple] = []
        #: ``(start, end)`` -- SM<->L2 interconnect busy interval.
        self.ic_intervals: list[tuple] = []
        #: ``(subcore, start, end)`` -- reduction-FPU busy interval.
        self.ru_intervals: list[tuple] = []

    # ------------------------------------------------------------------ #
    # Engine lifecycle
    # ------------------------------------------------------------------ #

    def attach(self, trace: "KernelTrace", config: "GPUConfig",
               strategy: "AtomicStrategy") -> None:
        """Stamp the simulation's identity and topology (engine-called)."""
        self.meta = {
            "trace_name": trace.name,
            "gpu": config.name,
            "strategy": strategy.name,
            "n_batches": trace.n_batches,
            "num_sms": config.num_sms,
            "subcores_per_sm": config.subcores_per_sm,
            "num_partitions": config.num_partitions,
            "rops_per_partition": config.rops_per_partition,
            "lsu_queue_depth": config.lsu_queue_depth,
            "interconnect_bw": config.interconnect_bw,
            "clock_ghz": config.clock_ghz,
        }

    def finish(self, result: "SimResult") -> None:
        """Stamp end-of-kernel aggregates (engine-called, last)."""
        self.meta["total_cycles"] = result.total_cycles
        self.meta["lsu_full_events"] = result.lsu_full_events

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @property
    def total_cycles(self) -> float:
        """Kernel duration recorded by :meth:`finish` (0 before it)."""
        return float(self.meta.get("total_cycles", 0.0))

    def as_dict(self) -> dict:
        """JSON-compatible snapshot of everything recorded.

        Record tuples become lists; consumers index by position using the
        layouts documented on the attributes above.
        """
        return {
            "format": 1,
            "meta": dict(self.meta),
            "spans": [list(record) for record in self.spans],
            "lsu": [list(record) for record in self.lsu_intervals],
            "rop": [list(record) for record in self.rop_intervals],
            "ic": [list(record) for record in self.ic_intervals],
            "ru": [list(record) for record in self.ru_intervals],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Telemetry":
        """Rebuild a collector from :meth:`as_dict` output."""
        if data.get("format") != 1:
            raise ValueError("unknown telemetry payload format")
        telemetry = cls()
        telemetry.meta = dict(data["meta"])
        telemetry.spans = [tuple(record) for record in data["spans"]]
        telemetry.lsu_intervals = [tuple(record) for record in data["lsu"]]
        telemetry.rop_intervals = [tuple(record) for record in data["rop"]]
        telemetry.ic_intervals = [tuple(record) for record in data["ic"]]
        telemetry.ru_intervals = [tuple(record) for record in data["ru"]]
        return telemetry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Telemetry {self.meta.get('strategy', '?')} "
            f"{len(self.spans)} spans, {len(self.rop_intervals)} rop, "
            f"{len(self.lsu_intervals)} lsu>"
        )
