"""Strategy interface for atomic-update handling.

Every approach evaluated in the paper -- the ``atomicAdd`` baseline, ARC-SW
(serialized and butterfly), ARC-HW, CCCL-style warp reduction, LAB /
LAB-ideal and PHI -- is an :class:`AtomicStrategy`.  A strategy is consulted
once per warp batch and answers with a :class:`BatchPlan`: how many cycles
the sub-core spends issuing extra instructions, how much work lands on
SM-local units (ARC-HW reduction FPU, LAB SRAM buffer, PHI L1 tags), and
which memory transactions travel to the L2 ROP units.

Every strategy plans from the batch's *shape* -- the tuple of its
coalesced group sizes -- through :meth:`AtomicStrategy.plan_shape`.  The
returned plan is a template: each :attr:`MemRequest.slot` holds a group
index into that tuple, and the engine binds it to the batch's group slot
when it issues the request.  ``plan_shape`` is a pure function of
``(sizes, num_params, mode)`` and state fixed by
:meth:`~AtomicStrategy.begin_kernel`: it assigns no attribute and reads
no engine state, so the engine plans each distinct shape once per kernel
call and reuses the template (the test ``test_plan_shape_is_pure``
checks it).  The one live input a template may depend on is
:meth:`AtomicStrategy.plan_mode`: when a class overrides it, the engine
calls it for every batch with active lanes and folds it into the
template key; ARC-HW's greedy scheduler returns its stall test there.

Per-kernel state that each batch mutates lives behind one hook,
:meth:`AtomicStrategy.touch`.  When a class overrides it, the engine
calls it for every batch with active lanes, after the template is
looked up; the requests it returns carry absolute slots and are issued
after the template's.  The SM-buffer strategies
(:mod:`repro.core.smbuffer`: LAB, LAB-ideal, PHI, DAB) touch the batch's
slots in their per-SM LRU buffer there and return the evictions.  A
template is never mutated after it is returned.
:meth:`AtomicStrategy.plan_batch` does both steps for one batch, for
callers that plan a single batch directly; the engine never calls it.

Batches with no active lane are planned once per kernel, not once per
batch: see :meth:`AtomicStrategy.idle_plan`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace

import numpy as np

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from collections.abc import Hashable

    from repro.gpu.config import GPUConfig
    from repro.trace.events import KernelTrace


__all__ = ["MemRequest", "BatchPlan", "BatchView", "EngineView", "AtomicStrategy"]


class MemRequest(NamedTuple):
    """One coalesced atomic transaction headed for the memory subsystem.

    ``rop_ops`` is the number of serialized same-address lane operations the
    ROP unit must perform for this transaction (hardware processes atomics
    to a common address one at a time).

    A plain tuple: the engine unpacks it positionally in field order.
    """

    slot: int
    rop_ops: int
    #: Distinct destination addresses the transaction's operations cover
    #: (one per learned parameter).  Operations to *different* addresses
    #: can proceed in parallel at the memory partitions; only same-address
    #: operations serialize, so the per-address dependency chain advances
    #: by ``rop_ops / addresses`` operations.
    addresses: int = 1
    #: Request is produced by the ARC-HW reduction unit and becomes ready
    #: only once the serial FPU reduction finishes.
    after_ru: bool = False
    #: Request does not occupy an LSU queue entry (LAB-ideal's dedicated
    #: SRAM port).
    bypass_lsu: bool = False


@dataclass(slots=True)
class BatchPlan:
    """Cost/traffic outcome of one warp batch under some strategy."""

    #: Extra sub-core issue cycles (beyond the batch's gradient math).
    issue_cycles: float = 0.0
    #: Values serially summed on the ARC-HW per-sub-core reduction FPU.
    ru_values: int = 0
    #: Lane values applied at the SM-level LAB SRAM atomic buffer.
    sm_buffer_ops: int = 0
    #: Lane values applied at the SM's L1 tags (PHI).  A plan uses at
    #: most one SM-local unit: ``sm_buffer_ops`` or ``l1_tag_ops``.
    l1_tag_ops: int = 0
    #: Warp-wide shuffle instructions executed (for energy accounting).
    shuffle_ops: int = 0
    #: Transactions sent toward L2 (or absorbed by a local buffer).  In
    #: a :meth:`AtomicStrategy.plan_shape` template each ``slot`` is a
    #: group index, and the plan is shared by every batch of its shape.
    requests: list[MemRequest] = field(default_factory=list)
    #: LAB/PHI only: requests are absorbed by the local buffer; the listed
    #: requests below are evictions that do continue to the ROPs.
    local_absorb: bool = False


class BatchView:
    """Cheap per-batch view handed to strategies.

    Exposes the address-coalescing result (group slots and sizes, as plain
    sequences), the parameter count, and placement (which SM executes the
    batch).
    """

    __slots__ = ("index", "sm", "subcore", "slots", "sizes", "num_params")

    def __init__(self, index, sm, subcore, slots, sizes, num_params):
        self.index = index
        self.sm = sm
        self.subcore = subcore
        self.slots = slots
        self.sizes = sizes
        self.num_params = num_params

    @property
    def n_groups(self) -> int:
        return len(self.slots)


class EngineView(ABC):
    """Live engine state a strategy reads in ``plan_mode`` and ``touch``."""

    #: Current simulation time in cycles (kept a plain attribute: it is
    #: read/written once per batch on the hot path).
    now: float = 0.0

    @abstractmethod
    def lsu_pressure(self, sm: int) -> float:
        """Occupancy of *sm*'s LSU queue in [0, 1].

        ARC-HW's greedy scheduler reads this: a (nearly) full queue means
        the ROP path is backed up, so the warp should reduce locally.
        """

    def ru_backlog(self, subcore: int) -> float:
        """Pending work (cycles) queued at *subcore*'s reduction unit.

        The §4.3 greedy scheduler picks "whichever queue is free": it
        only diverts to the reduction FPU while the FPU is keeping up.
        Engines without reduction units report zero.
        """
        return 0.0


class AtomicStrategy(ABC):
    """Base class for every atomic-handling approach."""

    #: Short identifier used in reports ("baseline", "ARC-SW-B", ...).
    name: str = "abstract"

    def begin_kernel(self, trace: KernelTrace, config: GPUConfig) -> None:
        """Reset per-launch state.  Called once before simulation."""

    def plan_batch(self, batch: BatchView, engine: EngineView) -> BatchPlan:
        """The plan of one *batch*: :meth:`plan_shape`'s template bound to
        its slots, followed by :meth:`touch`'s requests.

        A convenience for callers that plan a single batch; the engine
        does the same steps itself and never calls it, so a strategy
        must not override it.  An empty *batch* plans as
        :meth:`idle_plan`.
        """
        if not batch.n_groups:
            return self.idle_plan()
        mode = self.plan_mode(batch.sm, batch.subcore, engine)
        template = self.plan_shape(tuple(batch.sizes), batch.num_params, mode)
        slots = batch.slots
        requests = [request._replace(slot=slots[request.slot])
                    for request in template.requests]
        requests += self.touch(batch, engine) or ()
        return replace(template, requests=requests)

    def plan_shape(self, sizes: tuple[int, ...], num_params: int,
                   mode: Hashable) -> BatchPlan:
        """The plan template for a batch whose groups have *sizes*.

        Each request's ``slot`` is an index into *sizes*.  Must not assign
        attributes or read the engine: the engine calls it once per
        distinct ``(mode, sizes)`` per kernel and reuses the result.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement plan_shape")

    def plan_mode(self, sm: int, subcore: int, engine: EngineView) -> Hashable:
        """The live input of this batch's template, if any.

        Called for every batch with active lanes, before the template is
        looked up, when a class overrides it; the default has none, and
        the engine does not call it.
        """
        return None

    def touch(self, batch: BatchView,
              engine: EngineView) -> list[MemRequest] | None:
        """Per-batch state update; returns extra requests with absolute
        slots, or ``None``.

        Called for every batch with active lanes, after its template is
        looked up, when a class overrides it; the default has none, and
        the engine does not call it.  It must not mutate a template.
        """
        return None

    def idle_plan(self) -> BatchPlan:
        """The plan for a batch with no active lane.

        The engine calls this once per kernel, after :meth:`begin_kernel`,
        and applies the result to every batch with no active lane, which
        :meth:`touch` never sees.  It must therefore not read the
        engine or depend on the batch, and it may spend only sub-core
        cycles (``issue_cycles``, ``shuffle_ops``): the engine raises
        :class:`ValueError` if it carries ``requests``, ``ru_values``,
        ``sm_buffer_ops`` or ``l1_tag_ops``.  The default costs nothing.
        """
        return BatchPlan()

    def end_kernel(
        self, engine: EngineView
    ) -> list[tuple[int, list[MemRequest]]]:
        """Flush residual buffered state.

        Returns ``(sm, requests)`` groups, at most one per SM.  The engine
        drains the groups in the order their SMs finished, in list order
        between SMs that finished together.
        """
        return []

    def reduce_batch_values(
        self, lane_slots: np.ndarray, values: np.ndarray
    ) -> list[tuple[int, np.ndarray]]:
        """Functional semantics: per-slot contribution of one batch.

        Returns ``(slot, params_vector)`` pairs whose accumulation must
        equal the plain scatter-add reference (modulo FP reassociation).
        The default performs a per-group left-to-right sum, which matches
        serialized reduction; subclasses with a different reduction order
        (butterfly) override this to model their exact FP ordering.
        """
        contributions = []
        for slot in np.unique(lane_slots[lane_slots >= 0]):
            members = np.nonzero(lane_slots == slot)[0]
            total = values[members[0]].astype(np.float64).copy()
            for lane in members[1:]:
                total += values[lane]
            contributions.append((int(slot), total))
        return contributions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"

