"""Kernel atomic traces: the interface between workloads and the simulator.

A *kernel trace* records, for one launch of a gradient-computation kernel,
every warp loop iteration that may issue atomic adds (Figure 5 of the
paper).  Each record ("warp batch") stores, per lane, the *slot* the lane
atomically updates.  A slot identifies one primitive's gradient record; the
lane issues ``num_params`` atomic adds to consecutive addresses inside that
slot (``p.grad_x1 .. p.grad_xN`` in the paper's pseudo-code).  Lanes made
inactive by the kernel's dynamic conditions carry slot ``-1``.

Traces are stored struct-of-arrays so that analysis (Observations 1 and 2)
and strategy planning are vectorizable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.gpu.warp import WARP_SIZE

__all__ = ["INACTIVE", "KernelTrace", "CoalescedTrace", "EngineInputs",
           "coalesce_trace"]

#: Lane-slot value marking a lane that does not issue atomics this iteration.
INACTIVE = -1


@dataclass(frozen=True)
class CoalescedTrace:
    """Address-coalescing result for a whole trace.

    This mirrors what the SM address-coalescing unit produces per warp
    instruction: the lanes of each batch grouped by destination slot.  Group
    ``g`` spans ``[offsets[b], offsets[b+1])`` for its batch ``b``.
    """

    #: (n_batches + 1,) start offset of each batch's groups.
    offsets: np.ndarray
    #: (n_groups,) destination slot per group.
    slots: np.ndarray
    #: (n_groups,) active-lane count per group.
    sizes: np.ndarray
    #: (n_groups,) 32-bit lane mask per group.
    masks: np.ndarray

    @property
    def n_groups(self) -> int:
        return len(self.slots)

    def groups_of(self, batch: int) -> slice:
        """Index range of *batch*'s groups in the flat group arrays."""
        return slice(int(self.offsets[batch]), int(self.offsets[batch + 1]))


@dataclass(frozen=True, slots=True)
class EngineInputs:
    """A trace's read-only inputs to the timing engine, as plain tuples.

    One plain sequence access per batch or group beats numpy scalars on
    the engine's hot path; building these once per trace instead of once
    per simulated kernel is what :attr:`KernelTrace.engine_inputs` is for.
    Tuples, so no simulation can change what the next one reads.

    The engine walks :attr:`order` with a cursor, so what it reads per
    batch is stored per *position* of :attr:`order`, and each batch's
    group sizes are interned into :attr:`shapes`: a warp's atomics
    coalesce into a few groups, so a kernel has only a handful of
    distinct shapes.
    """

    #: Batch indices grouped by warp: one run per warp, warps in
    #: first-appearance order (the block scheduler's dispatch order),
    #: each run in program order.
    order: tuple[int, ...]
    #: Where each warp's run starts in :attr:`order`, then ``len(order)``.
    run_starts: tuple[int, ...]
    #: :attr:`CoalescedTrace.slots`, indexed by group.
    group_slots: tuple[int, ...]
    #: The distinct batch shapes (tuples of :attr:`CoalescedTrace.sizes`
    #: of one batch); id 0 is the empty shape of a batch with no active
    #: lane, whether or not the trace has one.
    shapes: tuple[tuple[int, ...], ...]
    #: Per position ``p`` of :attr:`order`, for batch ``order[p]``: its
    #: shape id, the offset of its first group in :attr:`group_slots`
    #: (:attr:`CoalescedTrace.offsets`) and its
    #: :attr:`KernelTrace.compute_cycles_per_batch`.
    pos_shape: tuple[int, ...]
    pos_offset: tuple[int, ...]
    pos_compute: tuple[float, ...]


@dataclass(frozen=True)
class KernelTrace:
    """One kernel launch worth of warp atomic batches.

    Parameters
    ----------
    lane_slots:
        ``(n_batches, 32)`` int array; entry ``[b, l]`` is the slot lane
        ``l`` updates during batch ``b``, or :data:`INACTIVE`.
    num_params:
        Atomic adds each active lane issues per batch (one per learned
        parameter of the primitive).
    n_slots:
        Size of the gradient buffer in slots; all slot ids must be below it.
    warp_id:
        ``(n_batches,)`` hardware warp of each batch.  Batches of one warp
        execute in trace order on the same sub-core.  Defaults to one warp
        per batch.
    compute_cycles:
        Gradient-math cycles charged at the sub-core before the batch's
        atomics (the paper's "gradient computation is done here" region).
        Either one scalar for every batch or a per-batch array -- warps
        whose lanes all fail the early-out conditions only pay the check,
        not the full gradient math.
    values:
        Optional ``(n_batches, 32, num_params)`` float array of the actual
        gradient contributions, used for functional verification.
    bfly_eligible:
        Whether the kernel admits the Figure 17 code transformation that
        ARC-SW butterfly reduction requires (False for Pulsar, per §7.2).
    """

    lane_slots: np.ndarray
    num_params: int
    n_slots: int
    warp_id: np.ndarray = None  # type: ignore[assignment]
    compute_cycles: "float | np.ndarray" = 120.0
    values: np.ndarray | None = None
    bfly_eligible: bool = True
    name: str = ""

    def __post_init__(self) -> None:
        lane_slots = np.ascontiguousarray(self.lane_slots, dtype=np.int32)
        if lane_slots.ndim != 2 or lane_slots.shape[1] != WARP_SIZE:
            raise ValueError(
                f"lane_slots must be (n, {WARP_SIZE}), got {lane_slots.shape}"
            )
        if self.num_params <= 0:
            raise ValueError("num_params must be positive")
        if self.n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if lane_slots.size and lane_slots.max(initial=INACTIVE) >= self.n_slots:
            raise ValueError("lane_slots contains slot >= n_slots")
        if lane_slots.size and lane_slots.min(initial=INACTIVE) < INACTIVE:
            raise ValueError("lane_slots below -1 are invalid")
        object.__setattr__(self, "lane_slots", lane_slots)

        warp_id = self.warp_id
        if warp_id is None:
            warp_id = np.arange(len(lane_slots), dtype=np.int64)
        else:
            warp_id = np.ascontiguousarray(warp_id, dtype=np.int64)
            if warp_id.shape != (len(lane_slots),):
                raise ValueError("warp_id must be one entry per batch")
            if warp_id.size and warp_id.min() < 0:
                raise ValueError("warp_id must be non-negative")
        object.__setattr__(self, "warp_id", warp_id)

        if self.values is not None:
            values = np.ascontiguousarray(self.values, dtype=np.float64)
            expected = (len(lane_slots), WARP_SIZE, self.num_params)
            if values.shape != expected:
                raise ValueError(
                    f"values must have shape {expected}, got {values.shape}"
                )
            object.__setattr__(self, "values", values)
        compute = self.compute_cycles
        if np.ndim(compute) == 0:
            if compute < 0:
                raise ValueError("compute_cycles must be non-negative")
        else:
            compute = np.ascontiguousarray(compute, dtype=np.float64)
            if compute.shape != (len(lane_slots),):
                raise ValueError(
                    "per-batch compute_cycles must have one entry per batch"
                )
            if compute.size and compute.min() < 0:
                raise ValueError("compute_cycles must be non-negative")
            object.__setattr__(self, "compute_cycles", compute)

    @property
    def n_batches(self) -> int:
        return len(self.lane_slots)

    @property
    def active_lane_counts(self) -> np.ndarray:
        """(n_batches,) number of active lanes per batch (Observation 2)."""
        return (self.lane_slots != INACTIVE).sum(axis=1)

    @property
    def compute_cycles_per_batch(self) -> np.ndarray:
        """(n_batches,) gradient-math cycles, broadcasting a scalar."""
        if np.ndim(self.compute_cycles) == 0:
            return np.full(self.n_batches, float(self.compute_cycles))
        return self.compute_cycles

    @property
    def total_lane_ops(self) -> int:
        """Total per-lane atomic adds the kernel issues (all params)."""
        return int(self.active_lane_counts.sum()) * self.num_params

    @cached_property
    def coalesced(self) -> CoalescedTrace:
        """Cached address-coalescing of every batch (see module docs)."""
        return coalesce_trace(self.lane_slots)

    @cached_property
    def engine_inputs(self) -> EngineInputs:
        """Cached plain-tuple view of what the engine reads per batch.

        Lives on this object, so whatever bounds the trace bounds it; a
        :func:`dataclasses.replace` copy builds its own on first use.
        """
        # Equal values share one object: an int or float object costs
        # 24-32 bytes and a tuple entry 8, and batch indices, offsets and
        # slots draw on one range of ints, compute on a few floats.
        ints: dict[int, int] = {}
        floats: dict[float, float] = {}

        def shared(table: dict, values: list) -> tuple:
            return tuple(map(table.setdefault, values, values))

        # Sorting batches stably by their warp's first batch groups them
        # by warp, warps in first-appearance order, each in program order.
        _, first, warp_of = np.unique(
            self.warp_id, return_index=True, return_inverse=True)
        order = np.argsort(first[warp_of], kind="stable")
        run_starts = np.zeros(len(first) + 1, dtype=np.int64)
        np.cumsum(np.bincount(warp_of, minlength=len(first))[np.argsort(first)],
                  out=run_starts[1:])
        # The view holds everything the engine reads of the coalescing:
        # reuse a cached one, but do not keep its arrays alive for it.
        coalesced = vars(self).get("coalesced")
        if coalesced is None:
            coalesced = coalesce_trace(self.lane_slots)
        offsets = coalesced.offsets
        # Intern shapes without a per-batch loop: pad each batch's group
        # sizes with zeros to one row of bytes and deduplicate the rows as
        # opaque byte strings (much faster than ``np.unique(axis=0)``).
        # Sizes are positive, so a row's nonzero prefix is its shape, and
        # the all-zero row -- prepended so that it exists -- sorts first.
        batch_of_group = np.repeat(np.arange(self.n_batches), np.diff(offsets))
        padded = np.zeros((self.n_batches + 1, WARP_SIZE), dtype=np.uint8)
        padded[1 + batch_of_group,
               np.arange(coalesced.n_groups) - offsets[batch_of_group]] = coalesced.sizes
        rows, shape_of = np.unique(padded.view(f"V{WARP_SIZE}").ravel(),
                                   return_inverse=True)
        rows = rows.view(np.uint8).reshape(-1, WARP_SIZE)
        shapes = tuple(tuple(row[:n]) for row, n in
                       zip(rows.tolist(), np.count_nonzero(rows, axis=1).tolist()))
        shape_of = shape_of[1:]
        return EngineInputs(
            order=shared(ints, order.tolist()),
            run_starts=shared(ints, run_starts.tolist()),
            group_slots=shared(ints, coalesced.slots.tolist()),
            shapes=shapes,
            pos_shape=shared(ints, shape_of[order].tolist()),
            pos_offset=shared(ints, offsets[order].tolist()),
            pos_compute=shared(floats, self.compute_cycles_per_batch[order].tolist()),
        )

    @cached_property
    def fingerprint(self) -> str:  # omits the cosmetic name, see below
        """Deterministic content hash of everything the simulator reads.

        Covers lane slots, warp placement, per-batch compute cycles, the
        parameter/slot shape, butterfly eligibility and (when captured)
        the gradient values.  The cosmetic :attr:`name` is deliberately
        excluded: renaming a trace must not invalidate cached simulation
        results, while any change to simulated content must.
        """
        digest = hashlib.sha256()
        digest.update(b"kernel-trace-v1\0")
        digest.update(
            np.array(
                [self.num_params, self.n_slots, int(self.bfly_eligible)],
                dtype=np.int64,
            ).tobytes()
        )
        digest.update(self.lane_slots.tobytes())
        digest.update(self.warp_id.tobytes())
        compute = self.compute_cycles
        if np.ndim(compute) == 0:
            digest.update(np.float64(compute).tobytes())
        else:
            digest.update(np.ascontiguousarray(compute, np.float64).tobytes())
        if self.values is not None:
            digest.update(b"values\0")
            digest.update(self.values.tobytes())
        return digest.hexdigest()

    def reference_sums(self) -> np.ndarray:
        """Dense scatter-add of :attr:`values` -- the ground-truth gradient.

        This is what any correct atomic strategy must reproduce (up to
        floating-point reassociation).  Requires the trace to carry values.
        """
        if self.values is None:
            raise ValueError("trace carries no values; capture with values=True")
        sums = np.zeros((self.n_slots, self.num_params), dtype=np.float64)
        active = self.lane_slots != INACTIVE
        batch_idx, lane_idx = np.nonzero(active)
        slots = self.lane_slots[batch_idx, lane_idx]
        np.add.at(sums, slots, self.values[batch_idx, lane_idx])
        return sums

    def subsample(self, n: int, seed: int = 0) -> "KernelTrace":
        """Random subset of *n* batches (for fast functional tests)."""
        if n >= self.n_batches:
            return self
        rng = np.random.default_rng(seed)
        pick = np.sort(rng.choice(self.n_batches, size=n, replace=False))
        compute = self.compute_cycles
        if np.ndim(compute) != 0:
            compute = compute[pick]
        return KernelTrace(
            lane_slots=self.lane_slots[pick],
            num_params=self.num_params,
            n_slots=self.n_slots,
            warp_id=self.warp_id[pick],
            compute_cycles=compute,
            values=None if self.values is None else self.values[pick],
            bfly_eligible=self.bfly_eligible,
            name=f"{self.name}[sub{n}]" if self.name else "",
        )


def coalesce_trace(lane_slots: np.ndarray) -> CoalescedTrace:
    """Group every batch's lanes by destination slot, vectorized.

    Equivalent to running the SM address-coalescing unit over each warp
    atomic instruction: lanes with a common destination form one *atomic
    transaction* whose same-address lane operations the ROP unit serializes.
    """
    lane_slots = np.asarray(lane_slots, dtype=np.int64)
    n_batches = len(lane_slots)
    if n_batches == 0:
        empty_i = np.zeros(0, dtype=np.int64)
        return CoalescedTrace(
            offsets=np.zeros(1, dtype=np.int64),
            slots=empty_i,
            sizes=empty_i.copy(),
            masks=np.zeros(0, dtype=np.uint64),
        )

    order = np.argsort(lane_slots, axis=1, kind="stable")
    sorted_slots = np.take_along_axis(lane_slots, order, axis=1)
    valid = sorted_slots != INACTIVE
    is_first = np.zeros_like(valid)
    is_first[:, 0] = valid[:, 0]
    is_first[:, 1:] = valid[:, 1:] & (sorted_slots[:, 1:] != sorted_slots[:, :-1])

    flat_first = is_first.ravel()
    flat_valid = valid.ravel()
    group_of_element = np.cumsum(flat_first) - 1

    n_groups = int(flat_first.sum())
    slots = sorted_slots.ravel()[flat_first]
    sizes = np.bincount(group_of_element[flat_valid], minlength=n_groups)

    # Lane masks: each valid element contributes bit (1 << lane).  Sums of
    # distinct powers of two below 2**32 are exact in float64.
    lane_bits = (1.0 * 2.0 ** order).ravel()[flat_valid]
    masks = np.bincount(
        group_of_element[flat_valid], weights=lane_bits, minlength=n_groups
    ).astype(np.uint64)

    batch_of_group = np.repeat(np.arange(n_batches), WARP_SIZE)[flat_first]
    counts = np.bincount(batch_of_group, minlength=n_batches)
    offsets = np.zeros(n_batches + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return CoalescedTrace(
        offsets=offsets,
        slots=slots.astype(np.int64),
        sizes=sizes.astype(np.int64),
        masks=masks,
    )
