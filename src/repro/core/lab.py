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

from repro.core.base import BatchPlan
from repro.core.smbuffer import SMBufferStrategy

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Hashable

    from repro.gpu.config import GPUConfig
    from repro.trace.events import KernelTrace

__all__ = ["LAB", "LABIdeal"]


class LAB(SMBufferStrategy):
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

    def buffer_capacity(self, trace: KernelTrace, config: GPUConfig) -> int:
        """Tag plus one value per parameter per slot, in the SRAM share."""
        entry_bytes = self._tag_bytes + self._value_bytes * trace.num_params
        sram_bytes = config.l1_kib_per_sm * 1024 * self.capacity_fraction
        return max(1, int(sram_bytes // entry_bytes))

    def plan_shape(self, sizes: tuple[int, ...], num_params: int,
                   mode: Hashable) -> BatchPlan:
        """Issue per group; every lane's value is applied serially at the
        SM-wide buffer."""
        return BatchPlan(
            issue_cycles=num_params * len(sizes) * self._cost.atomic_issue,
            sm_buffer_ops=sum(int(size * num_params * self.op_overhead)
                              for size in sizes),
            local_absorb=not self.bypass_lsu,
        )


class LABIdeal(LAB):
    """Idealized LAB: dedicated full-size SRAM, no LSU contention, no
    tag-lookup or MSHR overheads."""

    name = "LAB-ideal"
    op_overhead = 1.0

    def __init__(self) -> None:
        super().__init__(capacity_fraction=1.0, bypass_lsu=True)
