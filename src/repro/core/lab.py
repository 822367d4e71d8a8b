"""LAB and LAB-ideal: SRAM atomic buffering at each SM (§7.1 comparison).

LAB (Dalmia et al., HPCA'22) reserves a partition of the per-SM L1/shared
SRAM and aggregates commutative atomic updates there, flushing a slot's
partial sum to the L2 ROPs on eviction.  The paper evaluates two variants:

* **LAB** -- the realistic configuration: buffer traffic still traverses
  the LSU, and the capacity is the (empirically best) partition of the
  L1/shared SRAM that the workload's own shared-memory usage leaves free.
* **LAB-ideal** -- an idealized upper bound: a dedicated same-size SRAM
  with its own port (no LSU contention), no tag/MSHR overheads.

Both are limited by the same structural property ARC-HW §7.1 calls out:
the buffer is *one* unit per SM serving four sub-cores, whereas ARC reduces
in registers inside each sub-core.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.base import AtomicStrategy, BatchPlan, BatchView, EngineView, MemRequest

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.gpu.config import GPUConfig
    from repro.trace.events import KernelTrace

__all__ = ["LAB", "LABIdeal"]


class LAB(AtomicStrategy):
    """Reconfigurable local atomic buffer in the L1/shared SRAM.

    Parameters
    ----------
    capacity_fraction:
        Fraction of the L1/shared SRAM available for atomic buffering.
        Differentiable-rendering kernels use some shared memory, so the
        realistic LAB gets only part of the SRAM (default 50%).
    bypass_lsu:
        LAB-ideal behaviour: buffer accesses skip the LSU queue.
    """

    name = "LAB"
    _tag_bytes = 8
    _value_bytes = 4
    #: Per-value tag-lookup/MSHR overhead the idealized variant omits
    #: (LAB-ideal "assumes no tag lookup overheads, MSHR queuing delays").
    op_overhead = 1.08

    def __init__(self, capacity_fraction: float = 0.5, bypass_lsu: bool = False):
        if not 0.0 < capacity_fraction <= 1.0:
            raise ValueError("capacity_fraction must be in (0, 1]")
        self.capacity_fraction = capacity_fraction
        self.bypass_lsu = bypass_lsu

    def begin_kernel(self, trace: KernelTrace, config: GPUConfig) -> None:
        """Reset per-launch state and capture the cost model."""
        self._cost = config.cost
        self._num_params = trace.num_params
        entry_bytes = self._tag_bytes + self._value_bytes * trace.num_params
        sram_bytes = config.l1_kib_per_sm * 1024 * self.capacity_fraction
        self._capacity = max(1, int(sram_bytes // entry_bytes))
        self._buffers: dict[int, OrderedDict[int, None]] = {}

    @property
    def capacity_slots(self) -> int:
        """Buffered primitive slots each SM can hold."""
        return self._capacity

    def plan_batch(self, batch: BatchView, engine: EngineView) -> BatchPlan:
        """Decide how this batch's atomics are carried out."""
        if batch.n_groups == 0:
            return self.idle_plan()
        cost = self._cost
        num_params = batch.num_params
        issue = num_params * batch.n_groups * cost.atomic_issue

        buffer = self._buffers.setdefault(batch.sm, OrderedDict())
        buffer_ops = 0
        evictions = []
        for slot, size in zip(batch.slots, batch.sizes):
            # Every lane's value is applied serially at the SM-wide buffer.
            buffer_ops += int(size * num_params * self.op_overhead)
            if slot in buffer:
                buffer.move_to_end(slot)
                continue
            buffer[slot] = None
            if len(buffer) > self._capacity:
                victim, _ = buffer.popitem(last=False)
                evictions.append(
                    MemRequest(slot=victim, rop_ops=num_params, addresses=num_params,
                        bypass_lsu=self.bypass_lsu,
                    )
                )
        return BatchPlan(
            issue_cycles=issue,
            sm_buffer_ops=buffer_ops,
            requests=evictions,
            local_absorb=not self.bypass_lsu,
        )

    def end_kernel(self, engine: EngineView) -> list[tuple[int, MemRequest]]:
        """Flush every SM's residual buffered partial sums to the L2."""
        flushes = []
        for sm, buffer in self._buffers.items():
            for slot in buffer:
                flushes.append(
                    (
                        sm,
                        MemRequest(slot=slot, rop_ops=self._num_params,
                            addresses=self._num_params,
                            bypass_lsu=self.bypass_lsu,
                        ),
                    )
                )
        self._buffers = {}
        return flushes


class LABIdeal(LAB):
    """Idealized LAB: dedicated full-size SRAM, no LSU contention, no
    tag-lookup or MSHR overheads."""

    name = "LAB-ideal"
    op_overhead = 1.0

    def __init__(self) -> None:
        super().__init__(capacity_fraction=1.0, bypass_lsu=True)
