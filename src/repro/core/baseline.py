"""The ``atomicAdd`` baseline: every lane's atomic goes to the L2 ROPs.

This is the reference configuration of the paper's evaluation (§7): the
address coalescing unit merges same-address lanes into one transaction per
destination, and the ROP unit serializes the transaction's lane operations.
No warp-level reduction happens in the SM.
"""

from __future__ import annotations

from repro.core.base import AtomicStrategy, BatchPlan, BatchView, EngineView, MemRequest

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.gpu.config import GPUConfig
    from repro.trace.events import KernelTrace

__all__ = ["BaselineAtomic"]


class BaselineAtomic(AtomicStrategy):
    """Plain CUDA ``atomicAdd`` for every gradient update."""

    name = "baseline"

    def begin_kernel(self, trace: KernelTrace, config: GPUConfig) -> None:
        """Reset per-launch state and capture the cost model."""
        self._cost = config.cost

    def plan_batch(self, batch: BatchView, engine: EngineView) -> BatchPlan:
        """Decide how this batch's atomics are carried out."""
        n_groups = batch.n_groups
        if n_groups == 0:
            return self.idle_plan()
        num_params = batch.num_params
        # One atomic instruction per parameter; the LDST port replays it
        # once per coalesced transaction (group).
        issue = num_params * n_groups * self._cost.atomic_issue
        requests = [
            MemRequest(slot=slot, rop_ops=size * num_params,
                       addresses=num_params)
            for slot, size in zip(batch.slots, batch.sizes)
        ]
        return BatchPlan(issue_cycles=issue, requests=requests)
