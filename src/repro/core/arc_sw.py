"""ARC-SW: software warp-level reduction with adaptive distribution (§5.5).

Two reduction variants are provided, matching the paper's Figures 15-17:

* :class:`ArcSWSerialized` (SW-S) -- a leader lane walks every active lane
  of its group with ``__shfl`` and accumulates serially, then issues one
  ``atomicAdd`` per parameter.
* :class:`ArcSWButterfly` (SW-B) -- when *all* lanes of the warp update the
  same primitive, a 5-step butterfly (reduction tree) of warp shuffles sums
  the gradients; previously-inactive lanes are forced to contribute zeros
  (the Figure 17 kernel transformation), so the tree always runs over 32
  lanes.

Both variants apply the *balancing threshold* (§4.4): groups with fewer
active lanes than the threshold skip the warp reduction and use plain
``atomicAdd`` at the ROP units, which spreads atomic work between the SMs
and the L2 and is where most of ARC's adaptivity comes from.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import AtomicStrategy, BatchPlan, MemRequest
from repro.gpu.warp import WARP_SIZE

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.gpu.config import GPUConfig
    from repro.trace.events import KernelTrace

__all__ = ["ArcSWSerialized", "ArcSWButterfly", "BUTTERFLY_STEPS"]

#: log2(32) shuffle-xor steps of the butterfly reduction tree.
BUTTERFLY_STEPS = 5


class _ArcSWBase(AtomicStrategy):
    """State shared by both ARC-SW variants."""

    def __init__(self, balance_threshold: int = 16):
        if not 0 <= balance_threshold <= WARP_SIZE:
            raise ValueError(
                f"balance threshold must be in [0, {WARP_SIZE}], "
                f"got {balance_threshold}"
            )
        self.balance_threshold = balance_threshold

    def begin_kernel(self, trace: KernelTrace, config: GPUConfig) -> None:
        self._cost = config.cost

    def _prologue_cycles(self) -> float:
        """``__match`` + ``__popc`` + branch + call overhead (Figure 14)."""
        cost = self._cost
        return cost.match_op + cost.popc_op + cost.branch + cost.sw_call_overhead


class ArcSWSerialized(_ArcSWBase):
    """SW-S: serialized leader-lane reduction (paper Figure 15)."""

    def __init__(self, balance_threshold: int = 16):
        super().__init__(balance_threshold)
        self.name = f"ARC-SW-S-{balance_threshold}"

    def plan_shape(self, sizes, num_params, mode) -> BatchPlan:
        """Serialized leader-lane reduction per group above the threshold."""
        cost = self._cost
        threshold = self.balance_threshold

        issue = self._prologue_cycles()
        shuffle_ops = 0
        requests = []
        max_reduced_lanes = 0
        for group, size in enumerate(sizes):
            if size >= threshold and size > 1:
                # Groups reduce concurrently in SIMT: different leaders walk
                # their groups in lock-step, so the loop trip count is the
                # largest group, while every shuffle executes warp-wide.
                max_reduced_lanes = max(max_reduced_lanes, size)
                shuffle_ops += size * num_params
                issue += num_params * cost.atomic_issue
                requests.append(MemRequest(slot=group, rop_ops=num_params, addresses=num_params))
            else:
                issue += num_params * cost.atomic_issue
                requests.append(MemRequest(slot=group, rop_ops=size * num_params, addresses=num_params))
        if max_reduced_lanes:
            issue += (
                max_reduced_lanes * num_params * cost.shuffle
                + max_reduced_lanes * cost.branch
            )
        return BatchPlan(
            issue_cycles=issue, shuffle_ops=shuffle_ops, requests=requests
        )


class ArcSWButterfly(_ArcSWBase):
    """SW-B: butterfly (tree) reduction over the full warp (Figure 16).

    Requires the kernel transformation of Figure 17 (inactive lanes emit
    zero gradients); kernels where thread divergence cannot be eliminated
    (Pulsar, §7.2) must not use this strategy --
    :meth:`begin_kernel` raises for such traces.
    """

    def __init__(self, balance_threshold: int = 16):
        super().__init__(balance_threshold)
        self.name = f"ARC-SW-B-{balance_threshold}"

    def begin_kernel(self, trace: KernelTrace, config: GPUConfig) -> None:
        """Reject kernels whose divergence cannot be eliminated (§7.2)."""
        super().begin_kernel(trace, config)
        if not trace.bfly_eligible:
            raise ValueError(
                f"trace {trace.name!r} cannot eliminate thread divergence; "
                "butterfly reduction (SW-B) is inapplicable -- use SW-S"
            )

    def idle_plan(self) -> BatchPlan:
        """Whole warp inactive: a warp-wide ballot early-out skips the
        zero-value reduction entirely.  (SW-B's redundant computation bites
        on warps where only *some* lanes are inactive -- those still run
        the full 32-lane tree.)"""
        return BatchPlan(issue_cycles=self._cost.match_op + self._cost.branch)

    def plan_shape(self, sizes, num_params, mode) -> BatchPlan:
        """Full-warp butterfly when all lanes share a slot, else fallback."""
        cost = self._cost

        if len(sizes) == 1 and sizes[0] >= self.balance_threshold:
            # Full-warp reduction tree: 5 shuffle steps per parameter, all
            # 32 lanes participating (inactive ones add zeros), then lane 0
            # issues one atomicAdd per parameter.
            issue = (
                self._prologue_cycles()
                + BUTTERFLY_STEPS * num_params * cost.shuffle
                + num_params * cost.atomic_issue
            )
            return BatchPlan(
                issue_cycles=issue,
                shuffle_ops=BUTTERFLY_STEPS * num_params * WARP_SIZE,
                requests=[MemRequest(slot=0, rop_ops=num_params, addresses=num_params)],
            )

        # Fallback (Figure 16 lines 12-17): active lanes use plain atomics.
        issue = self._prologue_cycles()
        requests = []
        for group, size in enumerate(sizes):
            issue += num_params * cost.atomic_issue
            requests.append(
                MemRequest(slot=group, rop_ops=size * num_params,
                           addresses=num_params)
            )
        return BatchPlan(issue_cycles=issue, requests=requests)

    def reduce_batch_values(self, lane_slots, values):
        """Butterfly FP ordering: pairwise tree over all 32 lanes.

        Inactive lanes contribute exact zeros, so tree reduction only
        reassociates -- the result differs from the serial order by normal
        floating-point noise.
        """
        slots = lane_slots[lane_slots >= 0]
        unique = np.unique(slots)
        if len(unique) != 1:
            return super().reduce_batch_values(lane_slots, values)
        padded = np.where(
            (lane_slots >= 0)[:, None], values, 0.0
        ).astype(np.float64)
        width = WARP_SIZE
        while width > 1:
            half = width // 2
            padded[:half] = padded[:half] + padded[half:width]
            width = half
        return [(int(unique[0]), padded[0].copy())]
