"""Discrete-event timing engine for the GPU atomic pipeline.

The engine replays a :class:`~repro.trace.events.KernelTrace` through the
resource topology of Figure 1 in the paper:

* each **sub-core** executes its resident warps' batches in order: gradient
  math, then the strategy's extra instructions, then memory traffic;
* the per-SM **LSU queue** has finite depth; a full queue blocks the
  sub-core (recorded as LSU stall -- the paper's headline bottleneck);
* accepted transactions cross a bandwidth-limited **interconnect** to a
  **memory partition**, where a free **ROP unit** serializes the
  transaction's same-address lane operations;
* strategy-specific SM-local units (ARC-HW reduction FPUs, LAB SRAM
  buffers, PHI L1 tag pipelines) are additional serial resources.

The model is cycle-approximate: resources are servers with deterministic
service times and the event order follows sub-core readiness.  That is
enough to reproduce the queueing effects the paper measures (who stalls,
where, and by how much) without modeling a full out-of-order memory system.
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush, heapreplace

from repro.core.base import AtomicStrategy, BatchView, EngineView
from repro.gpu.config import GPUConfig
from repro.gpu.stats import SimResult

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.trace.events import KernelTrace

__all__ = ["simulate_kernel"]


class _EngineState(EngineView):
    """The live state strategies read in ``plan_mode`` and ``touch``.

    The event loop sets ``now`` once per event and mutates the ``lsu``
    heaps and the ``ru_free`` list in place.
    """

    def __init__(self, config: GPUConfig):
        self.now = 0.0
        # Per-SM LSU in-flight completion heaps.
        self.lsu: list[list[float]] = [[] for _ in range(config.num_sms)]
        self.lsu_depth = config.lsu_queue_depth
        # Per-sub-core reduction-unit free times.
        self.ru_free = [0.0] * config.num_subcores

    def lsu_pressure(self, sm: int) -> float:
        heap = self.lsu[sm]
        now = self.now
        while heap and heap[0] <= now:
            heappop(heap)
        return len(heap) / self.lsu_depth

    def ru_backlog(self, subcore: int) -> float:
        return max(0.0, self.ru_free[subcore] - self.now)


def simulate_kernel(
    trace: KernelTrace,
    config: GPUConfig,
    strategy: AtomicStrategy,
    telemetry=None,
) -> SimResult:
    """Simulate one gradient-computation kernel launch.

    Parameters
    ----------
    trace:
        The kernel's warp atomic trace (see :mod:`repro.trace.events`).
    config:
        Simulated GPU (:data:`~repro.gpu.config.RTX4090_SIM` or similar).
    strategy:
        Atomic-handling approach under test.
    telemetry:
        Optional :class:`~repro.gpu.telemetry.Telemetry` collector.  When
        given, the engine records per-batch phase spans and resource busy
        intervals into it, stamped with simulation time only; results are
        bit-identical with telemetry on or off, and ``None`` (the
        default) adds no work beyond dead predicate tests.

    Returns
    -------
    SimResult
        Cycle counts, stall attribution, and event tallies.

    Raises
    ------
    ValueError
        If the strategy's ``idle_plan()`` carries memory traffic.
    """
    strategy.begin_kernel(trace, config)
    # Every batch with no active lane runs this plan; no template or
    # touch is made for such a batch.
    idle = strategy.idle_plan()
    if idle.requests or idle.ru_values or idle.sm_buffer_ops or idle.l1_tag_ops:
        raise ValueError(
            f"{strategy.name}: idle_plan() must carry no memory traffic "
            "(requests, ru_values, sm_buffer_ops or l1_tag_ops)"
        )
    state = _EngineState(config)
    stats = SimResult(
        strategy=strategy.name, gpu=config.name, trace_name=trace.name
    )
    stats.n_batches = trace.n_batches
    stats.lane_ops = trace.total_lane_ops
    tel = telemetry
    if tel is not None:
        tel.attach(trace, config, strategy)
    if trace.n_batches == 0:
        if tel is not None:
            tel.finish(stats)
        return stats

    # Batches grouped by warp, in trace (program) order per warp.  Warps
    # are dispatched to sub-cores greedily in first-appearance order,
    # like the hardware block scheduler: a sub-core that drains its warp
    # pulls the next pending one.  This is what balances uneven tiles
    # across the GPU.  The trace builds its plain-tuple inputs once and
    # keeps them, so every simulation of it shares them.
    inputs = trace.engine_inputs
    order = inputs.order
    run_starts = inputs.run_starts
    n_runs = len(run_starts) - 1
    next_run = 0
    group_slots = inputs.group_slots
    shapes = inputs.shapes
    pos_shape = inputs.pos_shape
    pos_offset = inputs.pos_offset
    pos_compute = inputs.pos_compute
    warp_ids = trace.warp_id.tolist() if tel is not None else None
    # One template per distinct shape (and mode), kept for this call
    # only (cost and num_params are fixed here), so nothing needs
    # invalidating.  A class without a live input finds its template by
    # shape id in a list, whose id 0 holds the idle plan; one with
    # plan_mode keys a dict by (mode, shape id).  A class with a touch
    # hook gets the batch's view after the lookup.
    by_shape = by_mode = None
    if type(strategy).plan_mode is AtomicStrategy.plan_mode:
        by_shape = [idle] + [None] * (len(shapes) - 1)
    else:
        by_mode = {}
    plan_shape = strategy.plan_shape
    plan_mode = strategy.plan_mode
    touch = None
    if type(strategy).touch is not AtomicStrategy.touch:
        touch = strategy.touch
        view = BatchView(0, 0, 0, None, None, trace.num_params)
    # Whether this batch's request slots are group indices; only a touch
    # that returns requests clears it.
    bind = True
    num_params = trace.num_params
    idle_issue = idle.issue_cycles
    idle_shuffles = idle.shuffle_ops
    n_subcores = config.num_subcores
    sm_of = [subcore // config.subcores_per_sm for subcore in range(n_subcores)]
    sm_last_time = [0.0] * config.num_sms
    cost = config.cost
    atomic_service = cost.atomic_service
    ic_latency = cost.interconnect_latency
    ic_step = 1.0 / config.interconnect_bw
    transit = cost.lsu_transit
    lab_buffer_op = cost.lab_buffer_op
    phi_tag_op = cost.phi_tag_op
    ru_op = cost.reduction_unit_op
    # LSU queues and reduction units are shared with the strategies.
    lsu = state.lsu
    lsu_depth = state.lsu_depth
    ru_free = state.ru_free
    buf_free = [0.0] * config.num_sms  # LAB SRAM buffer
    l1_free = [0.0] * config.num_sms  # PHI L1 tag pipeline
    # Per-partition min-heaps of ROP-unit free times.
    num_partitions = config.num_partitions
    partitions = [[0.0] * config.rops_per_partition for _ in range(num_partitions)]
    # Hot-address serialization at the ROPs.
    slot_free = [0.0] * trace.n_slots
    ic_free = 0.0
    last_completion = 0.0

    # Local accumulators (folded into stats after the loop).
    acc_compute = acc_issue = acc_lsu_stall = acc_local_stall = 0.0
    acc_ru_busy = acc_rop_busy = 0.0
    acc_shuffles = acc_buffer_ops = acc_tag_ops = acc_ru_values = 0
    transactions = rop_ops_total = lsu_full_events = 0

    # Event loop: take the sub-core that becomes ready earliest, run its
    # next batch to completion (from the sub-core's point of view),
    # repeat.  Every heap entry is ``(time, subcore, push_seq, cursor,
    # run_end)``: the sub-core runs positions ``cursor:run_end`` of
    # ``order`` (its current warp).  Same-timestamp events pop in the
    # engine's established deterministic sub-core order, and the unique
    # sequence number, increasing with every push, settles every
    # comparison before the cursor payload is reached, so tie order is
    # set by ``(time, subcore, push_seq)`` alone.  REPRO_SANITIZE=1 turns
    # on a runtime assert that the popped stream honors that order.
    sanitize = os.environ.get("REPRO_SANITIZE") == "1"
    ready_heap = []
    push_seq = 0
    for subcore in range(n_subcores):
        if next_run == n_runs:
            break
        ready_heap.append(
            (0.0, subcore, push_seq, run_starts[next_run], run_starts[next_run + 1]))
        next_run += 1
        push_seq += 1
    heapify(ready_heap)

    last_popped = (-1.0, -1, -1)
    while ready_heap:
        # The entry stays on the heap until the event ends: heapreplace
        # then swaps in the sub-core's next event, or heappop drops it.
        t, subcore, seq, cursor, run_end = ready_heap[0]
        if sanitize:
            assert last_popped < (t, subcore, seq), (
                f"event-tie order violated: popped {(t, subcore, seq)} "
                f"after {last_popped}; pushes must be monotonic in "
                "(time, subcore, seq)"
            )
            last_popped = (t, subcore, seq)
        state.now = t
        sm = sm_of[subcore]
        shape_id = pos_shape[cursor]
        lo = pos_offset[cursor]
        compute = pos_compute[cursor]
        if tel is not None:
            index = order[cursor]
            warp = warp_ids[index]
        if by_shape is not None:
            plan = by_shape[shape_id]
            if plan is None:
                plan = by_shape[shape_id] = plan_shape(
                    shapes[shape_id], num_params, None)
        elif not shape_id:
            plan = idle
        else:
            key = (plan_mode(sm, subcore, state), shape_id)
            plan = by_mode.get(key)
            if plan is None:
                plan = by_mode[key] = plan_shape(
                    shapes[shape_id], num_params, key[0])
        requests = plan.requests
        if touch is not None and shape_id:
            sizes = shapes[shape_id]
            view.index = order[cursor]
            view.sm = sm
            view.subcore = subcore
            view.slots = group_slots[lo:lo + len(sizes)]
            view.sizes = sizes
            extra = touch(view, state)
            bind = not extra
            if extra:
                # The hook's requests carry absolute slots: bind the
                # template's ahead of them.
                requests = [request._replace(slot=group_slots[lo + request.slot])
                            for request in requests] + extra
        cursor += 1

        t0 = t
        issue = plan.issue_cycles
        t = t0 + compute + issue
        acc_compute += compute
        acc_issue += issue
        acc_shuffles += plan.shuffle_ops
        if tel is not None:
            if compute:
                tel.spans.append((subcore, warp, index, "compute", t0, t0 + compute))
            if issue:
                tel.spans.append((subcore, warp, index, "issue", t0 + compute, t))

        # SM-local buffering (LAB SRAM buffer / PHI L1 tags): the sub-core
        # streams lane values into a shared per-SM unit and is blocked
        # until it finishes accepting them.  When the traffic traverses
        # the MIO/LSU path (local_absorb), it first takes an LSU queue
        # entry.  LAB's bundle only transits the LSU briefly (the buffer
        # has its own downstream queue); PHI's entry is held until the L1
        # pipeline finishes the per-lane tag lookups -- this is how the
        # flood of atomic requests overwhelms the LSU *before*
        # aggregation (§7.1).  A plan uses at most one of the two units.
        buffer_ops = plan.sm_buffer_ops
        local_ops = buffer_ops or plan.l1_tag_ops
        if local_ops:
            absorb = plan.local_absorb
            if absorb:
                heap = lsu[sm]
                while heap and heap[0] <= t:
                    heappop(heap)
                if len(heap) < lsu_depth:
                    admission = t
                else:
                    lsu_full_events += 1
                    admission = heappop(heap)
                acc_lsu_stall += admission - t
                if tel is not None and admission > t:
                    tel.spans.append((subcore, warp, index, "lsu_wait", t, admission))
                t = admission
            if buffer_ops:
                unit_free, op_cycles = buf_free, lab_buffer_op
            else:
                unit_free, op_cycles = l1_free, phi_tag_op
            start = unit_free[sm]
            if t >= start:
                start = t
            end = start + local_ops * op_cycles
            unit_free[sm] = end
            if absorb:
                held = t + transit if buffer_ops else end
                heappush(heap, held)
                if tel is not None:
                    tel.lsu_intervals.append((sm, t, held))
            acc_local_stall += end - t
            acc_buffer_ops += buffer_ops
            acc_tag_ops += plan.l1_tag_ops
            if tel is not None:
                tel.spans.append((subcore, warp, index, "local_unit", t, end))
            t = end

        # ARC-HW reduction unit: dedicated serial FPU per sub-core.  The
        # sub-core hands over the transaction and moves on; only the
        # reduced request waits for the FPU.
        ru_done = t
        ru_values = plan.ru_values
        if ru_values:
            ru_start = ru_free[subcore]
            if t >= ru_start:
                ru_start = t
            ru_done = ru_start + ru_values * ru_op
            ru_free[subcore] = ru_done
            acc_ru_busy += ru_done - ru_start
            acc_ru_values += ru_values
            if tel is not None:
                tel.ru_intervals.append((subcore, ru_start, ru_done))

        # Each transaction takes an LSU queue entry (unless it bypasses
        # the LSU), crosses the interconnect and occupies one ROP unit of
        # its slot's partition for its total service time (aggregate
        # throughput), while the *per-address* dependency chain -- the
        # paper's same-address serialization -- only advances by
        # ``rop_ops / addresses`` operations, because operations to a
        # primitive's different parameters hit different addresses and
        # can overlap.  A template's slot is a group index of this batch.
        heap = lsu[sm]
        for slot, rop_ops, addresses, after_ru, bypass_lsu in requests:
            if bind:
                slot = group_slots[lo + slot]
            ready = ru_done if after_ru else t
            if bypass_lsu:
                admission = ready
            else:
                while heap and heap[0] <= ready:
                    heappop(heap)
                if len(heap) < lsu_depth:
                    admission = ready
                else:
                    lsu_full_events += 1
                    admission = heappop(heap)
            ic_start = admission if admission >= ic_free else ic_free
            ic_free = ic_start + addresses * ic_step
            arrive = ic_start + ic_latency
            rops = partitions[slot % num_partitions]
            start = arrive if arrive >= rops[0] else rops[0]
            prior = slot_free[slot]
            if prior > start:
                start = prior
            service = rop_ops * atomic_service
            end = start + service
            heapreplace(rops, end)
            slot_free[slot] = start + service / addresses
            if end > last_completion:
                last_completion = end
            transactions += addresses
            rop_ops_total += rop_ops
            acc_rop_busy += service
            if not bypass_lsu:
                # The queue entry frees when the ROP retires the
                # transaction; that coupling is what backs atomic
                # pressure up into the SMs.
                heappush(heap, end)
            if tel is not None:
                tel.rop_intervals.append(
                    (slot % num_partitions, slot, rop_ops, start, end))
                tel.ic_intervals.append((ic_start, ic_free))
                if not bypass_lsu:
                    tel.lsu_intervals.append((sm, admission, end))
            wait = admission - ready
            if wait > 0:
                if after_ru:
                    # The reduction unit holds its result until the LSU
                    # accepts it; the sub-core itself is not blocked.
                    if admission > ru_free[subcore]:
                        ru_free[subcore] = admission
                else:
                    acc_lsu_stall += wait
                    if tel is not None:
                        tel.spans.append(
                            (subcore, warp, index, "lsu_wait", ready, admission))
                    if admission > t:
                        t = admission

        if cursor == run_end and next_run < n_runs:
            # Warp drained: pull the next pending warp.
            cursor = run_starts[next_run]
            next_run += 1
            run_end = run_starts[next_run]
        # The warp's following idle batches run in this event too, one at
        # a time in program order; its last batch keeps its own event
        # because the next pending warp is pulled when that event pops,
        # in order across sub-cores.  Idle batches touch no shared state.
        while cursor + 1 < run_end and not pos_shape[cursor]:
            t0 = t
            compute = pos_compute[cursor]
            t = t0 + compute + idle_issue
            acc_compute += compute
            acc_issue += idle_issue
            acc_shuffles += idle_shuffles
            if tel is not None:
                index = order[cursor]
                warp = warp_ids[index]
                if compute:
                    tel.spans.append((subcore, warp, index, "compute", t0, t0 + compute))
                if idle_issue:
                    tel.spans.append((subcore, warp, index, "issue", t0 + compute, t))
            cursor += 1
        # No batch moves time backwards, so the event's final time is the
        # SM's latest.
        if t > sm_last_time[sm]:
            sm_last_time[sm] = t
        if cursor < run_end:
            heapreplace(ready_heap, (t, subcore, push_seq, cursor, run_end))
            push_seq += 1
        else:
            heappop(ready_heap)
            if t > last_completion:
                last_completion = t

    # Kernel-exit flush of residual buffered state (LAB / PHI).  No warps
    # remain to block, so the writeback streams without occupying LSU
    # entries (the ROP path above, with the LSU bypassed); draining in
    # SM-completion order keeps the shared interconnect FIFO causally
    # consistent.  The sort is stable, so SMs that finish together drain
    # in end_kernel's order.
    flushes = sorted(strategy.end_kernel(state), key=lambda group: sm_last_time[group[0]])
    for sm, requests in flushes:
        ready = sm_last_time[sm]
        for slot, rop_ops, addresses, _, _ in requests:
            ic_start = ready if ready >= ic_free else ic_free
            ic_free = ic_start + addresses * ic_step
            arrive = ic_start + ic_latency
            rops = partitions[slot % num_partitions]
            start = arrive if arrive >= rops[0] else rops[0]
            prior = slot_free[slot]
            if prior > start:
                start = prior
            service = rop_ops * atomic_service
            end = start + service
            heapreplace(rops, end)
            slot_free[slot] = start + service / addresses
            if end > last_completion:
                last_completion = end
            transactions += addresses
            rop_ops_total += rop_ops
            acc_rop_busy += service
            if tel is not None:
                tel.rop_intervals.append(
                    (slot % num_partitions, slot, rop_ops, start, end))
                tel.ic_intervals.append((ic_start, ic_free))

    stats.compute_cycles = acc_compute
    stats.issue_cycles = acc_issue
    stats.shuffle_ops = acc_shuffles
    stats.lsu_stall_cycles = acc_lsu_stall
    stats.local_unit_stall_cycles = acc_local_stall
    stats.buffer_ops = acc_buffer_ops
    stats.l1_tag_ops = acc_tag_ops
    stats.ru_busy_cycles = acc_ru_busy
    stats.ru_values = acc_ru_values
    stats.rop_busy_cycles = acc_rop_busy
    stats.transactions = transactions
    stats.rop_ops = rop_ops_total
    stats.total_cycles = last_completion
    stats.lsu_full_events = lsu_full_events
    if tel is not None:
        tel.finish(stats)
    return stats
