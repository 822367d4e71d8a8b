"""Plan templates: every strategy is planned once per batch shape.

The engine plans each strategy through ``plan_shape`` once per distinct
``(plan_mode, sizes)`` of a kernel call and binds each template's group
indices to the batch's slots; the SM-buffer strategies (LAB, LAB-ideal,
PHI, DAB) add their per-batch LRU ``touch``.  The trace below repeats
every group-size signature on different slots, mixes in runs of idle
batches, and runs on a GPU whose LSU queue fills, so ARC-HW's greedy
scheduler sees both verdicts.
"""

import dataclasses

import numpy as np
import pytest

from repro.bench.metrics import sim_digest
from repro.core import (
    DAB,
    LAB,
    PHI,
    ArcHW,
    ArcSWButterfly,
    ArcSWSerialized,
    BaselineAtomic,
    CCCLReduce,
    LABIdeal,
)
from repro.gpu import RTX4090_SIM, simulate_kernel
from repro.gpu.warp import WARP_SIZE
from repro.trace import KernelTrace

#: Group sizes of a batch, in ascending slot order (the coalescing
#: order).  ``()`` is an idle batch.
SIGNATURES = [(32,), (8, 24), (4, 12, 16), (1, 1, 30), (5,), (16, 16), ()]
N_WARPS = 10
BATCHES_PER_WARP = 7
N_SLOTS = 24


def template_trace():
    rng = np.random.default_rng(7)
    rows, warps, compute = [], [], []
    for step in range(BATCHES_PER_WARP):
        for warp in range(N_WARPS):
            sizes = SIGNATURES[(3 * warp + step) % len(SIGNATURES)]
            slots = np.sort(rng.choice(N_SLOTS, size=len(sizes), replace=False))
            lanes = np.full(WARP_SIZE, -1, dtype=np.int64)
            lanes[:sum(sizes)] = np.repeat(slots, sizes)
            rows.append(rng.permutation(lanes))
            warps.append(warp)
            compute.append(6.0 + (len(rows) % 4) * 2.5)
    return KernelTrace(np.array(rows), num_params=3, n_slots=N_SLOTS,
                       warp_id=warps, compute_cycles=np.array(compute))


def template_gpu():
    """Two SMs of two sub-cores with a two-entry LSU queue that fills."""
    return dataclasses.replace(
        RTX4090_SIM, name="templates", num_sms=2, subcores_per_sm=2,
        num_rops=2, num_partitions=2, lsu_queue_depth=2,
        interconnect_bw=0.5,
    )


STRATEGIES = {
    "baseline": BaselineAtomic,
    "ARC-SW-S-8": lambda: ArcSWSerialized(8),
    "ARC-SW-B-8": lambda: ArcSWButterfly(8),
    "CCCL": CCCLReduce,
    "ARC-HW": ArcHW,
    "LAB-0.001": lambda: LAB(capacity_fraction=0.001),
    "LAB-ideal": LABIdeal,
    "PHI": PHI,
    "DAB-8": lambda: DAB(epoch_batches=8),
}

#: ``(sim_digest, total_cycles, lsu_full_events)``, recorded from the
#: engine before plan templates existed, when every batch was planned by
#: its strategy's own ``plan_batch``; the SM-buffer entries were recorded
#: from that per-batch path just before it was removed.
EXPECTED = {
    "baseline": ("9a3fc8dc2d8f5831", 8052.332000000002, 114),
    "ARC-SW-S-8": ("93e5ee86889d5c6c", 3979.840000000001, 52),
    "ARC-SW-B-8": ("120fe63f249343dd", 6607.9000000000015, 114),
    "CCCL": ("cf193a73470ecd56", 6471.452000000001, 113),
    "ARC-HW": ("46591c69883b6c9c", 4517.292, 81),
    "LAB-0.001": ("c8b1eaedf1df75ce", 4192.634400000001, 37),
    "LAB-ideal": ("d19301ee9261ef55", 3631.8039999999983, 0),
    "PHI": ("7fb048f7abfa52c5", 4296.680000000001, 0),
    "DAB-8": ("09fd7dc5aa38e122", 6467.918399999999, 78),
}

#: LAB-ideal bypasses the LSU queue, and a PHI sub-core waits until its
#: own queue entry frees, so two sub-cores never fill the two entries.
NO_LSU_PRESSURE = {"LAB-ideal", "PHI"}


def counting(factory, calls):
    """*factory*'s strategy with its ``plan_shape`` calls logged to
    *calls* (patched on the instance)."""
    strategy = factory()
    original = strategy.plan_shape

    def plan_shape(sizes, num_params, mode):
        calls.append((mode, sizes))
        return original(sizes, num_params, mode)

    strategy.plan_shape = plan_shape
    return strategy


def test_trace_repeats_each_signature_on_different_slots():
    trace = template_trace()
    coalesced = trace.coalesced
    seen = {}
    for batch in range(trace.n_batches):
        groups = coalesced.groups_of(batch)
        sizes = tuple(coalesced.sizes[groups].tolist())
        seen.setdefault(sizes, set()).add(tuple(coalesced.slots[groups].tolist()))
    assert set(seen) == set(SIGNATURES)
    assert all(len(slot_sets) > 1 for sizes, slot_sets in seen.items() if sizes)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_templates_reproduce_per_batch_planning(name):
    digest, total_cycles, lsu_full_events = EXPECTED[name]
    result = simulate_kernel(template_trace(), template_gpu(), STRATEGIES[name]())
    assert sim_digest(result) == digest
    assert result.total_cycles == total_cycles
    assert result.lsu_full_events == lsu_full_events
    assert (lsu_full_events > 0) == (name not in NO_LSU_PRESSURE)


def test_lab_evicts_mid_kernel():
    """The tiny LAB buffer overflows, so the touch hook's evictions go
    through the request path, not only the kernel-exit flush."""
    strategy = LAB(capacity_fraction=0.001)
    touch = strategy.touch
    evictions = []

    def counting(batch, engine):
        requests = touch(batch, engine)
        evictions.extend(requests or ())
        return requests

    strategy.touch = counting
    result = simulate_kernel(template_trace(), template_gpu(), strategy)
    assert sim_digest(result) == EXPECTED["LAB-0.001"][0]
    assert len(evictions) == 86


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_plan_shape_runs_once_per_mode_and_shape(name):
    calls = []
    strategy = counting(STRATEGIES[name], calls)
    result = simulate_kernel(template_trace(), template_gpu(), strategy)
    assert sim_digest(result) == EXPECTED[name][0]
    assert len(calls) == len(set(calls))
    assert {sizes for _, sizes in calls} == set(SIGNATURES) - {()}
    if name != "ARC-HW":
        assert {mode for mode, _ in calls} == {None}


def test_arc_hw_greedy_takes_both_modes():
    calls = []
    strategy = counting(ArcHW, calls)
    result = simulate_kernel(template_trace(), template_gpu(), strategy)
    assert result.ru_values > 0
    # Multi-lane groups were planned for the reduction unit and for the
    # ROPs: the ROP-path template sends a group of several lanes as one
    # transaction of all their operations.
    assert {mode for mode, sizes in calls if max(sizes) > 1} == {True, False}
    rop_path = [sizes for mode, sizes in calls if not mode and max(sizes) > 1]
    template = ArcHW()
    template.begin_kernel(template_trace(), template_gpu())
    plan = template.plan_shape(rop_path[0], 3, False)
    assert max(request.rop_ops for request in plan.requests) > 3
