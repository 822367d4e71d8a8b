"""The ``atomicAdd`` baseline: every lane's atomic goes to the L2 ROPs.

This is the reference configuration of the paper's evaluation (§7): the
address coalescing unit merges same-address lanes into one transaction per
destination, and the ROP unit serializes the transaction's lane operations.
No warp-level reduction happens in the SM.
"""

from __future__ import annotations

from repro.core.base import AtomicStrategy, BatchPlan, MemRequest

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

    def plan_shape(self, sizes, num_params, mode) -> BatchPlan:
        """Every group is one transaction of all its lane operations."""
        # One atomic instruction per parameter; the LDST port replays it
        # once per coalesced transaction (group).
        issue = num_params * len(sizes) * self._cost.atomic_issue
        requests = [
            MemRequest(slot=group, rop_ops=size * num_params,
                       addresses=num_params)
            for group, size in enumerate(sizes)
        ]
        return BatchPlan(issue_cycles=issue, requests=requests)
