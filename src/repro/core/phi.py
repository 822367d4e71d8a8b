"""PHI: commutative scatter-update aggregation in the L1 cache (§7.1).

PHI (Mukkara et al., MICRO'19) buffers commutative atomic updates in the L1
cache and writes aggregated partial sums toward the L2.  The paper finds it
provides only marginal benefit for differentiable rendering because

* the flood of atomic requests overwhelms the LSU *before* the L1 can
  aggregate them (requests still traverse the MIO/LSU path), and
* each update performs an L1 tag lookup, an overhead the SM pays serially.

This model reproduces both effects: all traffic takes an LSU queue entry
that is held until the L1 tag unit finishes, and each lane value costs a
tag-lookup service at the SM.
"""

from __future__ import annotations

from repro.core.base import BatchPlan
from repro.core.smbuffer import SMBufferStrategy

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Hashable

    from repro.gpu.config import GPUConfig
    from repro.trace.events import KernelTrace

__all__ = ["PHI"]


class PHI(SMBufferStrategy):
    """L1-cache aggregation of commutative atomics."""

    name = "PHI"
    _line_bytes = 128

    def buffer_capacity(self, trace: KernelTrace, config: GPUConfig) -> int:
        """One aggregation entry per cache line holding the slot's
        gradients."""
        line_slots = max(1, self._line_bytes // (4 * trace.num_params))
        lines = config.l1_kib_per_sm * 1024 // self._line_bytes
        return max(1, lines * line_slots)

    def plan_shape(self, sizes: tuple[int, ...], num_params: int,
                   mode: Hashable) -> BatchPlan:
        """Issue per group; one L1 tag lookup per lane value."""
        return BatchPlan(
            issue_cycles=num_params * len(sizes) * self._cost.atomic_issue,
            l1_tag_ops=sum(size * num_params for size in sizes),
            local_absorb=True,
        )
