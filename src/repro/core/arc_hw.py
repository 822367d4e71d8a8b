"""ARC-HW: hardware warp-level reduction with a greedy scheduler (§4.3, §5.1).

The programmer issues the new ``atomred`` instruction; the sub-core front
end needs no extra ``match``/``popc``/branch instructions because the
address-coalescing unit already produces per-destination lane masks.  For
each coalesced transaction the ARC scheduler consults the LSU stall state:

* ROP path free  -> forward the transaction unchanged (the baseline path);
* ROP path stalled -> hand the lane mask to the per-sub-core *reduction
  unit*, a serial FPU that sums the lanes' register values and emits a
  single aggregated atomic.

The decision reads live queue occupancy, so it is this strategy's
:meth:`~ArcHW.plan_mode`: the greedy policy reads the engine view once
per batch, and the plan for either verdict is a shape template.
"""

from __future__ import annotations

from repro.core.base import AtomicStrategy, BatchPlan, EngineView, MemRequest

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.gpu.config import GPUConfig
    from repro.trace.events import KernelTrace

__all__ = ["ArcHW"]


class ArcHW(AtomicStrategy):
    """The ``atomred`` instruction with greedy SM/ROP work distribution.

    Parameters
    ----------
    stall_threshold:
        LSU queue occupancy (fraction) above which the scheduler considers
        the ROP path stalled and diverts the transaction to the reduction
        unit.  The paper's greedy policy observes the LDST stall signal; a
        nearly-full queue is the simulator's equivalent.
    policy:
        Scheduling-policy ablation: ``"greedy"`` (the paper's design),
        ``"always"`` (every multi-lane transaction reduces at the SM,
        leaving the ROPs idle), or ``"never"`` (the reduction unit is
        bypassed -- the baseline path plus the atomred front end).
    """

    name = "ARC-HW"

    _POLICIES = ("greedy", "always", "never")

    def __init__(self, stall_threshold: float = 0.75,
                 policy: str = "greedy",
                 ru_backlog_limit: float = 1024.0):
        if not 0.0 < stall_threshold <= 1.0:
            raise ValueError("stall_threshold must be in (0, 1]")
        if policy not in self._POLICIES:
            raise ValueError(f"policy must be one of {self._POLICIES}")
        if ru_backlog_limit <= 0:
            raise ValueError("ru_backlog_limit must be positive")
        self.stall_threshold = stall_threshold
        self.policy = policy
        self.ru_backlog_limit = ru_backlog_limit
        if policy != "greedy":
            self.name = f"ARC-HW-{policy}"

    def begin_kernel(self, trace: KernelTrace, config: GPUConfig) -> None:
        """Capture the GPU cost model for this launch."""
        self._cost = config.cost

    def plan_mode(self, sm: int, subcore: int, engine: EngineView) -> bool:
        """Whether the ROP path counts as stalled for this batch."""
        if self.policy == "always":
            return True
        if self.policy == "never":
            return False
        # Greedy (§4.3): divert to the reduction unit only while the
        # ROP path is backed up AND the FPU queue is keeping up --
        # "whichever queue is free".
        return (
            engine.lsu_pressure(sm) >= self.stall_threshold
            and engine.ru_backlog(subcore) < self.ru_backlog_limit
        )

    def plan_shape(self, sizes, num_params, mode) -> BatchPlan:
        """Schedule each coalesced transaction: ROP path or reduction unit.

        *mode* is :meth:`plan_mode`'s stall verdict.
        """
        # atomred issues exactly like an atomic: one instruction per
        # parameter, replayed per coalesced transaction.  No software
        # prologue -- this is ARC-HW's key efficiency edge over ARC-SW.
        issue = num_params * len(sizes) * self._cost.atomic_issue
        ru_values = 0
        requests = []
        for group, size in enumerate(sizes):
            if mode and size > 1:
                # Warp-level reduction at the sub-core: the serial FPU sums
                # `size` lane values for each parameter, then one aggregated
                # atomic per parameter continues to the L2.
                ru_values += size * num_params
                requests.append(
                    MemRequest(slot=group, rop_ops=num_params, addresses=num_params, after_ru=True)
                )
            else:
                requests.append(
                    MemRequest(slot=group, rop_ops=size * num_params, addresses=num_params)
                )
        return BatchPlan(issue_cycles=issue, ru_values=ru_values, requests=requests)
