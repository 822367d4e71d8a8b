"""SM-local atomic buffers with LRU eviction: the core LAB, LAB-ideal, DAB
and PHI share.

Each SM owns one buffer of primitive slots.  A batch's lane values are
absorbed by its SM's buffer; a slot that does not fit evicts the least
recently used one, whose partial sum travels on to the L2 ROPs, and the
kernel's exit flushes every slot still buffered.

What a batch costs (issue cycles, buffer or tag operations) depends on
its *shape* alone -- the tuple of its group sizes -- so each subclass's
:meth:`~repro.core.base.AtomicStrategy.plan_shape` template carries no
requests, and the engine costs each shape once per kernel call.  Per
batch, only the LRU touch of its slots is left:
:meth:`SMBufferStrategy.touch` returns the evictions.
"""

from __future__ import annotations

from abc import abstractmethod
from collections import OrderedDict

from repro.core.base import AtomicStrategy, BatchView, EngineView, MemRequest

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.gpu.config import GPUConfig
    from repro.trace.events import KernelTrace

__all__ = ["SMBufferStrategy"]


class _SlotRequests(dict):
    """Slot -> the one write-back request of that slot, made on first use.

    Every eviction, epoch drain and exit flush of one kernel writes a
    slot's whole partial sum back the same way, so the request is a value
    of the slot alone; thousands of flushes share a few hundred of them.
    """

    def __init__(self, num_params: int, bypass_lsu: bool):
        super().__init__()
        self.num_params = num_params
        self.bypass_lsu = bypass_lsu

    def __missing__(self, slot: int) -> MemRequest:
        request = self[slot] = MemRequest(
            slot, self.num_params, self.num_params, False, self.bypass_lsu)
        return request


class SMBufferStrategy(AtomicStrategy):
    """Per-SM LRU slot buffers, costed per batch shape."""

    #: Evictions and flushes skip the LSU queue (LAB-ideal's own port).
    bypass_lsu = False

    def begin_kernel(self, trace: KernelTrace, config: GPUConfig) -> None:
        """Reset per-launch state and capture the cost model."""
        self._cost = config.cost
        self._capacity = self.buffer_capacity(trace, config)
        # SM -> LRU of buffered slots, created at the SM's first batch:
        # end_kernel flushes in this order, and the engine's stable flush
        # sort keeps it between SMs that finish together.
        self._buffers: dict[int, OrderedDict[int, None]] = {}
        self._writebacks = _SlotRequests(trace.num_params, self.bypass_lsu)

    @abstractmethod
    def buffer_capacity(self, trace: KernelTrace, config: GPUConfig) -> int:
        """Slots one SM's buffer holds for *trace* on *config*."""

    @property
    def capacity_slots(self) -> int:
        """Buffered primitive slots each SM can hold."""
        return self._capacity

    def touch(self, batch: BatchView,
              engine: EngineView) -> list[MemRequest] | None:
        """Touch the batch's slots in its SM's buffer; return the
        write-backs of the slots that overflow evicts."""
        buffer = self._buffers.get(batch.sm)
        if buffer is None:
            buffer = self._buffers[batch.sm] = OrderedDict()
        capacity = self._capacity
        evictions = None
        for slot in batch.slots:
            if slot in buffer:
                buffer.move_to_end(slot)
                continue
            buffer[slot] = None
            if len(buffer) > capacity:
                victim, _ = buffer.popitem(last=False)
                if evictions is None:
                    evictions = []
                evictions.append(self._writebacks[victim])
        return evictions

    def end_kernel(
        self, engine: EngineView
    ) -> list[tuple[int, list[MemRequest]]]:
        """Flush every SM's residual buffered partial sums to the L2."""
        writebacks = self._writebacks
        flushes = [(sm, [writebacks[slot] for slot in buffer])
                   for sm, buffer in self._buffers.items() if buffer]
        self._buffers = {}
        return flushes
