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

from collections import OrderedDict

from repro.core.base import AtomicStrategy, BatchPlan, BatchView, EngineView, MemRequest

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.gpu.config import GPUConfig
    from repro.trace.events import KernelTrace

__all__ = ["PHI"]


class PHI(AtomicStrategy):
    """L1-cache aggregation of commutative atomics."""

    name = "PHI"
    _line_bytes = 128

    def begin_kernel(self, trace: KernelTrace, config: GPUConfig) -> None:
        """Reset per-launch state and capture the cost model."""
        self._cost = config.cost
        self._num_params = trace.num_params
        # One aggregation entry per cache line holding the slot's gradients.
        line_slots = max(1, self._line_bytes // (4 * trace.num_params))
        lines = config.l1_kib_per_sm * 1024 // self._line_bytes
        self._capacity = max(1, lines * line_slots)
        self._buffers: dict[int, OrderedDict[int, None]] = {}

    def plan_batch(self, batch: BatchView, engine: EngineView) -> BatchPlan:
        """Decide how this batch's atomics are carried out."""
        if batch.n_groups == 0:
            return self.idle_plan()
        cost = self._cost
        num_params = batch.num_params
        issue = num_params * batch.n_groups * cost.atomic_issue

        buffer = self._buffers.setdefault(batch.sm, OrderedDict())
        tag_ops = 0
        evictions = []
        for slot, size in zip(batch.slots, batch.sizes):
            tag_ops += size * num_params
            if slot in buffer:
                buffer.move_to_end(slot)
                continue
            buffer[slot] = None
            if len(buffer) > self._capacity:
                victim, _ = buffer.popitem(last=False)
                evictions.append(MemRequest(slot=victim, rop_ops=num_params, addresses=num_params))
        return BatchPlan(
            issue_cycles=issue,
            l1_tag_ops=tag_ops,
            requests=evictions,
            local_absorb=True,
        )

    def end_kernel(self, engine: EngineView) -> list[tuple[int, MemRequest]]:
        """Flush every SM's residual buffered partial sums to the L2."""
        flushes = []
        for sm, buffer in self._buffers.items():
            for slot in buffer:
                flushes.append(
                    (
                        sm,
                        MemRequest(
                            slot=slot,
                            rop_ops=self._num_params,
                            addresses=self._num_params,
                        ),
                    )
                )
        self._buffers = {}
        return flushes
