"""DAB: deterministic atomic buffering (related work, §8).

DAB (Chou et al., MICRO'20) buffers and fuses atomic requests in dedicated
per-SM buffers like LAB, but additionally enforces a *deterministic*
execution order so floating-point results are bit-reproducible across
runs.  The ARC paper notes that determinism-aware scheduling introduces
overheads that can exceed 20% slowdown over non-deterministic baselines.

The model extends LAB with the two costs determinism adds:

* a per-value ordering cost (requests must be sequenced into warp order
  before they may update the buffer), and
* epoch flushes: every ``epoch_batches`` warp iterations the buffer must
  drain completely so cross-SM combining happens at deterministic points,
  forfeiting much of the aggregation LAB enjoys.

DAB is not part of the paper's evaluation figures; it is provided for the
related-work ablation benchmark.
"""

from __future__ import annotations

from repro.core.base import BatchPlan, BatchView, EngineView, MemRequest
from repro.core.lab import LAB

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Hashable

    from repro.gpu.config import GPUConfig
    from repro.trace.events import KernelTrace

__all__ = ["DAB"]


class DAB(LAB):
    """Deterministic atomic buffering with epoch flushes."""

    name = "DAB"
    #: Sequencing/reordering cost per buffered value (beyond LAB's tags).
    op_overhead = 1.45

    def __init__(self, epoch_batches: int = 64):
        if epoch_batches <= 0:
            raise ValueError("epoch_batches must be positive")
        super().__init__(capacity_fraction=0.5, bypass_lsu=False)
        self.epoch_batches = epoch_batches

    def begin_kernel(self, trace: KernelTrace, config: GPUConfig) -> None:
        """Reset LAB state plus the per-SM epoch counters."""
        super().begin_kernel(trace, config)
        self._batches_since_flush: dict[int, int] = {}

    def plan_shape(self, sizes: tuple[int, ...], num_params: int,
                   mode: Hashable) -> BatchPlan:
        """LAB's costs plus the ordering logic every batch pays."""
        plan = super().plan_shape(sizes, num_params, mode)
        plan.issue_cycles += self._cost.branch * 2
        return plan

    def touch(self, batch: BatchView,
              engine: EngineView) -> list[MemRequest] | None:
        """LAB's evictions plus epoch-boundary flushes."""
        requests = super().touch(batch, engine)
        sm = batch.sm
        count = self._batches_since_flush.get(sm, 0) + 1
        if count >= self.epoch_batches:
            # Epoch boundary: drain this SM's buffer deterministically.
            buffer = self._buffers[sm]
            if buffer:
                writebacks = self._writebacks
                requests = (requests or []) + [writebacks[slot] for slot in buffer]
                buffer.clear()
            count = 0
        self._batches_since_flush[sm] = count
        return requests
