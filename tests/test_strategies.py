"""Per-strategy plan semantics: instruction counts, traffic, thresholds."""

import numpy as np
import pytest

from repro.core import (
    DAB,
    LAB,
    PHI,
    ArcHW,
    ArcSWButterfly,
    ArcSWSerialized,
    BaselineAtomic,
    BatchView,
    CCCLReduce,
    LABIdeal,
)
from repro.core.base import EngineView
from repro.gpu import RTX4090_SIM
from repro.trace import KernelTrace

NUM_PARAMS = 10
COST = RTX4090_SIM.cost


class FakeEngine(EngineView):
    """EngineView stub with controllable LSU pressure."""

    def __init__(self, pressure=0.0):
        self._pressure = pressure
        self._now = 0.0

    @property
    def now(self):
        return self._now

    def lsu_pressure(self, sm):
        return self._pressure


def make_view(groups, num_params=NUM_PARAMS, sm=0):
    """groups: list of (slot, size) pairs."""
    slots = np.array([g[0] for g in groups], dtype=np.int64)
    sizes = np.array([g[1] for g in groups], dtype=np.int64)
    return BatchView(0, sm, sm * 4, slots, sizes, num_params)


def make_trace(bfly_eligible=True, num_params=NUM_PARAMS):
    lanes = np.zeros((1, 32), dtype=np.int64)
    return KernelTrace(
        lanes, num_params=num_params, n_slots=64, bfly_eligible=bfly_eligible
    )


def begin(strategy, **trace_kwargs):
    strategy.begin_kernel(make_trace(**trace_kwargs), RTX4090_SIM)
    return strategy


class TestBaseline:
    def test_empty_batch(self):
        plan = begin(BaselineAtomic()).plan_batch(make_view([]), FakeEngine())
        assert plan.issue_cycles == 0
        assert plan.requests == []

    def test_single_group_full_warp(self):
        plan = begin(BaselineAtomic()).plan_batch(
            make_view([(7, 32)]), FakeEngine()
        )
        assert plan.issue_cycles == NUM_PARAMS * COST.atomic_issue
        [req] = plan.requests
        assert req.slot == 7
        assert req.rop_ops == 32 * NUM_PARAMS

    def test_multi_group_replays_transactions(self):
        plan = begin(BaselineAtomic()).plan_batch(
            make_view([(1, 10), (2, 6)]), FakeEngine()
        )
        assert plan.issue_cycles == 2 * NUM_PARAMS * COST.atomic_issue
        assert {(r.slot, r.rop_ops) for r in plan.requests} == {
            (1, 10 * NUM_PARAMS),
            (2, 6 * NUM_PARAMS),
        }

    def test_never_uses_local_units(self):
        plan = begin(BaselineAtomic()).plan_batch(
            make_view([(1, 32)]), FakeEngine()
        )
        assert plan.ru_values == 0
        assert plan.sm_buffer_ops == 0
        assert plan.shuffle_ops == 0


class TestArcSWSerialized:
    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            ArcSWSerialized(balance_threshold=33)
        with pytest.raises(ValueError):
            ArcSWSerialized(balance_threshold=-1)

    def test_group_above_threshold_reduced(self):
        plan = begin(ArcSWSerialized(8)).plan_batch(
            make_view([(3, 20)]), FakeEngine()
        )
        [req] = plan.requests
        assert req.rop_ops == NUM_PARAMS  # aggregated: one op per parameter
        assert plan.shuffle_ops == 20 * NUM_PARAMS

    def test_group_below_threshold_goes_to_rop(self):
        plan = begin(ArcSWSerialized(8)).plan_batch(
            make_view([(3, 4)]), FakeEngine()
        )
        [req] = plan.requests
        assert req.rop_ops == 4 * NUM_PARAMS
        assert plan.shuffle_ops == 0

    def test_single_lane_group_never_reduced(self):
        plan = begin(ArcSWSerialized(0)).plan_batch(
            make_view([(3, 1)]), FakeEngine()
        )
        [req] = plan.requests
        assert req.rop_ops == NUM_PARAMS  # one lane: nothing to reduce
        assert plan.shuffle_ops == 0

    def test_mixed_groups_split_by_threshold(self):
        plan = begin(ArcSWSerialized(16)).plan_batch(
            make_view([(1, 20), (2, 3)]), FakeEngine()
        )
        ops = {r.slot: r.rop_ops for r in plan.requests}
        assert ops[1] == NUM_PARAMS
        assert ops[2] == 3 * NUM_PARAMS

    def test_serial_cost_scales_with_largest_group(self):
        small = begin(ArcSWSerialized(2)).plan_batch(
            make_view([(1, 4)]), FakeEngine()
        )
        large = begin(ArcSWSerialized(2)).plan_batch(
            make_view([(1, 28)]), FakeEngine()
        )
        assert large.issue_cycles > small.issue_cycles

    def test_name_embeds_threshold(self):
        assert ArcSWSerialized(5).name == "ARC-SW-S-5"


class TestArcSWButterfly:
    def test_rejects_ineligible_trace(self):
        with pytest.raises(ValueError, match="divergence"):
            begin(ArcSWButterfly(16), bfly_eligible=False)

    def test_all_same_above_threshold_butterfly(self):
        plan = begin(ArcSWButterfly(16)).plan_batch(
            make_view([(5, 20)]), FakeEngine()
        )
        [req] = plan.requests
        assert req.rop_ops == NUM_PARAMS
        assert plan.shuffle_ops == 5 * NUM_PARAMS * 32

    def test_below_threshold_falls_back(self):
        plan = begin(ArcSWButterfly(16)).plan_batch(
            make_view([(5, 6)]), FakeEngine()
        )
        [req] = plan.requests
        assert req.rop_ops == 6 * NUM_PARAMS
        assert plan.shuffle_ops == 0

    def test_divergent_batch_falls_back(self):
        plan = begin(ArcSWButterfly(0)).plan_batch(
            make_view([(1, 16), (2, 16)]), FakeEngine()
        )
        assert {r.rop_ops for r in plan.requests} == {16 * NUM_PARAMS}
        assert plan.shuffle_ops == 0

    def test_empty_batch_takes_ballot_early_out(self):
        """A fully-inactive warp skips the zero-value reduction cheaply."""
        plan = begin(ArcSWButterfly(0)).plan_batch(make_view([]), FakeEngine())
        assert 0 < plan.issue_cycles <= COST.match_op + COST.branch
        assert plan.shuffle_ops == 0
        assert plan.requests == []

    def test_butterfly_cost_independent_of_active_count(self):
        """Redundant computation: 8 active lanes cost the same as 32."""
        p8 = begin(ArcSWButterfly(4)).plan_batch(make_view([(1, 8)]), FakeEngine())
        p32 = begin(ArcSWButterfly(4)).plan_batch(
            make_view([(1, 32)]), FakeEngine()
        )
        assert p8.issue_cycles == p32.issue_cycles


class TestArcHW:
    def test_stall_threshold_validated(self):
        with pytest.raises(ValueError):
            ArcHW(stall_threshold=0.0)
        with pytest.raises(ValueError):
            ArcHW(stall_threshold=1.5)

    def test_rop_path_when_lsu_free(self):
        plan = begin(ArcHW()).plan_batch(
            make_view([(2, 24)]), FakeEngine(pressure=0.0)
        )
        [req] = plan.requests
        assert req.rop_ops == 24 * NUM_PARAMS
        assert not req.after_ru
        assert plan.ru_values == 0

    def test_reduction_path_when_lsu_stalled(self):
        plan = begin(ArcHW()).plan_batch(
            make_view([(2, 24)]), FakeEngine(pressure=1.0)
        )
        [req] = plan.requests
        assert req.rop_ops == NUM_PARAMS
        assert req.after_ru
        assert plan.ru_values == 24 * NUM_PARAMS

    def test_single_lane_never_reduced_even_under_stall(self):
        plan = begin(ArcHW()).plan_batch(
            make_view([(2, 1)]), FakeEngine(pressure=1.0)
        )
        [req] = plan.requests
        assert not req.after_ru
        assert plan.ru_values == 0

    def test_no_software_prologue(self):
        """atomred adds no match/popc/branch instructions (§4.5)."""
        arc = begin(ArcHW()).plan_batch(make_view([(2, 24)]), FakeEngine())
        base = begin(BaselineAtomic()).plan_batch(make_view([(2, 24)]), FakeEngine())
        assert arc.issue_cycles == base.issue_cycles
        assert arc.shuffle_ops == 0


class TestCCCL:
    def test_always_reduces_uniform_batches(self):
        plan = begin(CCCLReduce()).plan_batch(make_view([(4, 2)]), FakeEngine())
        [req] = plan.requests
        assert req.rop_ops == NUM_PARAMS  # reduces even tiny groups

    def test_divergent_batch_fallback(self):
        plan = begin(CCCLReduce()).plan_batch(
            make_view([(4, 8), (5, 8)]), FakeEngine()
        )
        assert {r.rop_ops for r in plan.requests} == {8 * NUM_PARAMS}
        assert plan.shuffle_ops == 0

    def test_ineligible_trace_always_falls_back(self):
        strat = begin(CCCLReduce(), bfly_eligible=False)
        plan = strat.plan_batch(make_view([(4, 32)]), FakeEngine())
        [req] = plan.requests
        assert req.rop_ops == 32 * NUM_PARAMS

    def test_overhead_exceeds_arc_sw(self):
        cccl = begin(CCCLReduce()).plan_batch(make_view([(4, 32)]), FakeEngine())
        arc = begin(ArcSWButterfly(16)).plan_batch(
            make_view([(4, 32)]), FakeEngine()
        )
        assert cccl.issue_cycles > arc.issue_cycles


class TestLAB:
    def test_capacity_fraction_validated(self):
        with pytest.raises(ValueError):
            LAB(capacity_fraction=0.0)
        with pytest.raises(ValueError):
            LAB(capacity_fraction=1.5)

    def test_inserts_absorbed_by_buffer(self):
        strat = begin(LAB())
        plan = strat.plan_batch(make_view([(1, 16)]), FakeEngine())
        # Every lane value hits the buffer, plus tag/MSHR overhead.
        assert plan.sm_buffer_ops == int(16 * NUM_PARAMS * LAB.op_overhead)
        assert plan.requests == []  # absorbed, no eviction yet
        assert plan.local_absorb  # still traverses the LSU

    def test_ideal_has_no_tag_overhead(self):
        lab = begin(LAB()).plan_batch(make_view([(1, 16)]), FakeEngine())
        ideal = begin(LABIdeal()).plan_batch(make_view([(1, 16)]), FakeEngine())
        assert ideal.sm_buffer_ops == 16 * NUM_PARAMS
        assert lab.sm_buffer_ops > ideal.sm_buffer_ops

    def test_ideal_bypasses_lsu(self):
        strat = begin(LABIdeal())
        plan = strat.plan_batch(make_view([(1, 16)]), FakeEngine())
        assert not plan.local_absorb

    def test_ideal_capacity_larger(self):
        lab = begin(LAB())
        ideal = begin(LABIdeal())
        assert ideal.capacity_slots > lab.capacity_slots

    def test_eviction_after_capacity_exceeded(self):
        strat = begin(LAB())
        capacity = strat.capacity_slots
        engine = FakeEngine()
        evictions = []
        for slot in range(capacity + 3):
            plan = strat.plan_batch(make_view([(slot, 4)], sm=0), engine)
            evictions.extend(plan.requests)
        assert len(evictions) == 3
        assert all(r.rop_ops == NUM_PARAMS for r in evictions)
        # LRU: the first-inserted slots are the victims.
        assert [r.slot for r in evictions] == [0, 1, 2]

    def test_buffers_are_per_sm(self):
        strat = begin(LAB())
        capacity = strat.capacity_slots
        engine = FakeEngine()
        for slot in range(capacity):
            strat.plan_batch(make_view([(slot, 1)], sm=0), engine)
        # A different SM's buffer is untouched: no eviction.
        plan = strat.plan_batch(make_view([(63, 1)], sm=1), engine)
        assert plan.requests == []

    def test_end_kernel_flushes_everything(self):
        strat = begin(LAB())
        engine = FakeEngine()
        strat.plan_batch(make_view([(1, 4), (2, 4)], sm=0), engine)
        strat.plan_batch(make_view([(9, 4)], sm=3), engine)
        flushes = strat.end_kernel(engine)
        assert [(sm, [r.slot for r in requests]) for sm, requests in flushes] \
            == [(0, [1, 2]), (3, [9])]
        assert strat.end_kernel(engine) == []  # idempotent


class TestPHI:
    def test_tag_ops_charged_per_lane_value(self):
        strat = begin(PHI())
        plan = strat.plan_batch(make_view([(1, 12)]), FakeEngine())
        assert plan.l1_tag_ops == 12 * NUM_PARAMS
        assert plan.local_absorb

    def test_flush_on_end(self):
        strat = begin(PHI())
        strat.plan_batch(make_view([(1, 4)], sm=2), FakeEngine())
        flushes = strat.end_kernel(FakeEngine())
        assert [(sm, [r.slot for r in requests]) for sm, requests in flushes] \
            == [(2, [1])]


def snapshot(plan):
    """A deep copy of *plan*'s fields, requests included."""
    return (plan.issue_cycles, plan.ru_values, plan.sm_buffer_ops,
            plan.l1_tag_ops, plan.shuffle_ops, list(plan.requests),
            plan.local_absorb)


@pytest.mark.parametrize("factory", [
    lambda: LAB(capacity_fraction=0.001),
    PHI,
    lambda: DAB(epoch_batches=2),
], ids=["LAB", "PHI", "DAB"])
def test_buffered_plans_are_never_changed_after_return(factory):
    """A template is shared by every batch of its shape: no touch --
    eviction or epoch drain -- may alter it."""
    strat = begin(factory())
    engine = FakeEngine()
    template = strat.plan_shape((4, 4), NUM_PARAMS, None)
    recorded = snapshot(template)
    sent = 0
    # 4,000 distinct slots overflow even PHI's 3,072-slot buffer.
    for slot in range(0, 4000, 2):
        requests = strat.touch(make_view([(slot, 4), (slot + 1, 4)]), engine)
        assert requests is not template.requests
        sent += len(requests or ())
    assert sent > 0
    assert snapshot(template) == recorded
    assert template.requests == []
