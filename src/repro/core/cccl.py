"""CCCL-style library warp reduction (the §7.2 comparison point).

NVIDIA's CCCL/CUB ``WarpReduce`` assumes *all* threads of the warp are
active and updating one destination.  The paper reports that making it work
for differentiable rendering required significant engineering (forcing
inactive lanes to contribute zeros, like SW-B's transformation) and that it
still underperforms ARC-SW for two reasons this model reproduces:

* no adaptive distribution -- every eligible warp reduces at the SM even
  when the ROP units are idle and even when only one lane is active; and
* warps whose lanes update different destinations (common in NvDiffRec)
  fall back to plain atomics, so most reduction opportunities are missed.
"""

from __future__ import annotations

from repro.core.arc_sw import BUTTERFLY_STEPS
from repro.core.base import AtomicStrategy, BatchPlan, MemRequest
from repro.gpu.warp import WARP_SIZE

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.gpu.config import GPUConfig
    from repro.trace.events import KernelTrace

__all__ = ["CCCLReduce"]


class CCCLReduce(AtomicStrategy):
    """Library ``WarpReduce``: full-warp tree, no balancing threshold."""

    name = "CCCL"

    def begin_kernel(self, trace: KernelTrace, config: GPUConfig) -> None:
        """Reset per-launch state and capture the cost model."""
        self._cost = config.cost
        # The all-lanes-active requirement needs the same zero-padding
        # kernel transformation as SW-B; where that is impossible the
        # library path can never trigger and everything falls back.
        self._transform_possible = trace.bfly_eligible

    def idle_plan(self) -> BatchPlan:
        """Whole warp inactive: ballot early-out before the library call."""
        return BatchPlan(issue_cycles=self._cost.match_op + self._cost.branch)

    def plan_shape(self, sizes, num_params, mode) -> BatchPlan:
        """Library tree on a one-destination warp, else plain atomics."""
        cost = self._cost

        eligible = self._transform_possible and len(sizes) == 1
        if eligible:
            # Generic library entry + full 32-lane reduction tree for every
            # parameter, regardless of how few lanes carry real values.
            issue = (
                cost.cccl_overhead
                + BUTTERFLY_STEPS * num_params * cost.shuffle
                + num_params * cost.atomic_issue
            )
            return BatchPlan(
                issue_cycles=issue,
                shuffle_ops=BUTTERFLY_STEPS * num_params * WARP_SIZE,
                requests=[
                    MemRequest(slot=0, rop_ops=num_params, addresses=num_params)
                ],
            )

        # Divergent warp: the library cannot be used; plain atomics remain.
        issue = cost.branch
        requests = []
        for group, size in enumerate(sizes):
            issue += num_params * cost.atomic_issue
            requests.append(
                MemRequest(slot=group, rop_ops=size * num_params,
                           addresses=num_params)
            )
        return BatchPlan(issue_cycles=issue, requests=requests)
