"""Timing-engine behaviour: queueing, stalls, contention, determinism."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    LAB,
    PHI,
    ArcHW,
    ArcSWButterfly,
    ArcSWSerialized,
    BaselineAtomic,
    BatchPlan,
    LABIdeal,
    MemRequest,
)
from repro.gpu import RTX3060_SIM, RTX4090_SIM, simulate_kernel
from repro.trace import KernelTrace, coalesced_trace, hotspot_trace, scattered_trace


def tiny_gpu(**overrides):
    """A small GPU so queueing effects are easy to reason about."""
    params = dict(
        name="tiny",
        num_sms=2,
        subcores_per_sm=2,
        num_rops=4,
        num_partitions=2,
        lsu_queue_depth=4,
        interconnect_bw=4.0,
        clock_ghz=1.0,
        registers_per_sm=1024,
        l1_kib_per_sm=16,
        l2_mib=1.0,
        dram_channels=1,
        dram_banks=1,
        dram_gib=1,
    )
    params.update(overrides)
    return dataclasses.replace(RTX4090_SIM, **params)


def test_empty_trace_completes_at_zero():
    trace = KernelTrace(np.zeros((0, 32), dtype=int), num_params=1, n_slots=1)
    result = simulate_kernel(trace, tiny_gpu(), BaselineAtomic())
    assert result.total_cycles == 0
    assert result.n_batches == 0


def test_idle_plan_with_traffic_is_rejected():
    """The engine applies idle_plan() to every idle batch without
    routing memory traffic, so a plan that carries any must fail loudly."""

    class LeakyIdle(BaselineAtomic):
        def idle_plan(self):
            return BatchPlan(requests=[MemRequest(slot=0, rop_ops=1)])

    lanes = np.full((4, 32), -1, dtype=np.int64)
    trace = KernelTrace(lanes, num_params=1, n_slots=1)
    with pytest.raises(ValueError, match="idle_plan"):
        simulate_kernel(trace, tiny_gpu(), LeakyIdle())


def test_single_batch_latency_accounting():
    """One batch: compute + issue + interconnect + ROP service."""
    lanes = np.zeros((1, 32), dtype=np.int64)
    trace = KernelTrace(lanes, num_params=2, n_slots=1, compute_cycles=10.0)
    gpu = tiny_gpu()
    result = simulate_kernel(trace, gpu, BaselineAtomic())
    cost = gpu.cost
    issue = 2 * cost.atomic_issue
    expected = (
        10.0 + issue + cost.interconnect_latency + 64 * cost.atomic_service
    )
    assert result.total_cycles == pytest.approx(expected)
    assert result.compute_cycles == 10.0
    assert result.rop_ops == 64
    assert result.transactions == 2  # one flit per parameter address


def test_total_cycles_monotone_in_load():
    gpu = tiny_gpu()
    small = coalesced_trace(n_batches=50, n_slots=16, seed=0)
    large = coalesced_trace(n_batches=500, n_slots=16, seed=0)
    t_small = simulate_kernel(small, gpu, BaselineAtomic()).total_cycles
    t_large = simulate_kernel(large, gpu, BaselineAtomic()).total_cycles
    assert t_large > t_small


def test_deterministic():
    trace = coalesced_trace(n_batches=300, seed=7)
    a = simulate_kernel(trace, RTX4090_SIM, BaselineAtomic())
    b = simulate_kernel(trace, RTX4090_SIM, BaselineAtomic())
    assert a.total_cycles == b.total_cycles
    assert a.lsu_stall_cycles == b.lsu_stall_cycles


def test_lsu_backpressure_creates_stalls():
    """Few ROPs + many atomics must back pressure into LSU stalls."""
    gpu = tiny_gpu(num_rops=2, num_partitions=1, lsu_queue_depth=2)
    trace = hotspot_trace(n_batches=400, num_params=8)
    result = simulate_kernel(trace, gpu, BaselineAtomic())
    assert result.lsu_stall_cycles > 0
    assert result.lsu_full_events > 0
    assert result.stall_breakdown()["lsu_stall"] > 0.5


def test_more_rops_means_fewer_cycles():
    trace = coalesced_trace(n_batches=400, n_slots=64, seed=1)
    few = simulate_kernel(trace, tiny_gpu(num_rops=2, num_partitions=2),
                          BaselineAtomic())
    many = simulate_kernel(trace, tiny_gpu(num_rops=16, num_partitions=2),
                           BaselineAtomic())
    assert many.total_cycles < few.total_cycles


def test_hot_slot_serializes_even_with_many_rops():
    """Same-address atomics serialize regardless of ROP count."""
    hot = hotspot_trace(n_batches=200, num_params=4)
    gpu = tiny_gpu(num_rops=16, num_partitions=2, lsu_queue_depth=64)
    result = simulate_kernel(hot, gpu, BaselineAtomic())
    # All ops target one primitive (4 parameter addresses): runtime is at
    # least the per-address serialized chain.
    chain = result.rop_ops * gpu.cost.atomic_service / 4
    assert result.total_cycles >= chain


def test_scattered_slots_use_partitions_in_parallel():
    scattered = scattered_trace(n_batches=200, n_slots=4096, num_params=4)
    hot = hotspot_trace(n_batches=200, num_params=4)
    gpu = tiny_gpu(num_rops=16, num_partitions=4, lsu_queue_depth=64)
    t_scattered = simulate_kernel(scattered, gpu, BaselineAtomic()).total_cycles
    t_hot = simulate_kernel(hot, gpu, BaselineAtomic()).total_cycles
    assert t_scattered < t_hot


def test_arc_sw_reduces_rop_traffic():
    trace = coalesced_trace(n_batches=500, n_slots=128, mean_active=24, seed=3)
    base = simulate_kernel(trace, RTX4090_SIM, BaselineAtomic())
    arc = simulate_kernel(trace, RTX4090_SIM, ArcSWButterfly(8))
    assert arc.rop_ops < base.rop_ops / 3
    assert arc.total_cycles < base.total_cycles


def test_arc_hw_uses_reduction_units_under_pressure():
    trace = coalesced_trace(n_batches=2000, n_slots=64, mean_active=28, seed=3)
    gpu = tiny_gpu(num_rops=2, num_partitions=1, lsu_queue_depth=2)
    result = simulate_kernel(trace, gpu, ArcHW())
    assert result.ru_values > 0
    assert result.ru_busy_cycles > 0


def test_arc_hw_bypasses_reduction_when_rops_free():
    """A trickle of atomics never builds pressure: all go to the ROPs."""
    trace = coalesced_trace(
        n_batches=20, n_slots=64, mean_active=4, seed=3
    )
    result = simulate_kernel(trace, RTX4090_SIM, ArcHW())
    assert result.ru_values == 0


def test_lab_buffer_absorbs_and_flushes():
    trace = coalesced_trace(n_batches=300, n_slots=32, seed=2)
    result = simulate_kernel(trace, tiny_gpu(), LAB())
    # All lane values hit the buffer (with per-value tag overhead).
    assert result.buffer_ops >= trace.total_lane_ops
    # Aggregation: far fewer ROP ops than lane ops.
    assert result.rop_ops < trace.total_lane_ops / 4
    assert result.local_unit_stall_cycles > 0


def test_lab_ideal_at_least_as_fast_as_lab():
    trace = coalesced_trace(n_batches=600, n_slots=2048, seed=2)
    lab = simulate_kernel(trace, RTX4090_SIM, LAB())
    ideal = simulate_kernel(trace, RTX4090_SIM, LABIdeal())
    assert ideal.total_cycles <= lab.total_cycles


def test_phi_charges_tag_ops():
    trace = coalesced_trace(n_batches=200, n_slots=32, seed=2)
    result = simulate_kernel(trace, tiny_gpu(), PHI())
    assert result.l1_tag_ops == trace.total_lane_ops


def test_stall_breakdown_fractions_sum_to_one():
    trace = coalesced_trace(n_batches=200, seed=5)
    for strategy in (BaselineAtomic(), ArcSWSerialized(8), LAB(), PHI()):
        result = simulate_kernel(trace, RTX3060_SIM, strategy)
        assert sum(result.stall_breakdown().values()) == pytest.approx(1.0)


def test_speedup_requires_nonempty_simulation():
    trace = KernelTrace(np.zeros((0, 32), dtype=int), num_params=1, n_slots=1)
    empty = simulate_kernel(trace, tiny_gpu(), BaselineAtomic())
    with pytest.raises(ValueError):
        empty.speedup_over(empty)


def test_energy_positive_and_lower_for_arc():
    trace = coalesced_trace(n_batches=1000, n_slots=256, mean_active=24, seed=9)
    base = simulate_kernel(trace, RTX4090_SIM, BaselineAtomic())
    arc = simulate_kernel(trace, RTX4090_SIM, ArcSWButterfly(8))
    e_base = base.energy_joules(RTX4090_SIM)
    e_arc = arc.energy_joules(RTX4090_SIM)
    assert e_base > 0 and e_arc > 0
    assert e_arc < e_base


def test_runtime_ms_uses_clock():
    trace = coalesced_trace(n_batches=100, seed=4)
    result = simulate_kernel(trace, RTX4090_SIM, BaselineAtomic())
    assert result.runtime_ms(RTX4090_SIM) == pytest.approx(
        result.total_cycles / (RTX4090_SIM.clock_ghz * 1e6)
    )


def test_warp_id_groups_batches_on_one_subcore():
    """Batches of one warp serialize; distinct warps overlap."""
    lanes = np.zeros((64, 32), dtype=np.int64)
    serial = KernelTrace(
        lanes, num_params=1, n_slots=1,
        warp_id=np.zeros(64, dtype=int), compute_cycles=100.0,
    )
    spread = KernelTrace(
        lanes, num_params=1, n_slots=1,
        warp_id=np.arange(64), compute_cycles=100.0,
    )
    gpu = tiny_gpu(num_rops=64, num_partitions=2, lsu_queue_depth=64)
    t_serial = simulate_kernel(serial, gpu, BaselineAtomic()).total_cycles
    t_spread = simulate_kernel(spread, gpu, BaselineAtomic()).total_cycles
    assert t_spread < t_serial
