"""Tests for KernelTrace and the vectorized address coalescer."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.gpu.warp import WARP_SIZE, lanes_from_mask
from repro.trace import INACTIVE, KernelTrace, coalesce_trace
from repro.trace.synthetic import coalesced_trace, scattered_trace


def make_trace(lane_slots, **kwargs):
    lane_slots = np.asarray(lane_slots)
    defaults = dict(num_params=2, n_slots=int(lane_slots.max(initial=0)) + 1)
    defaults.update(kwargs)
    return KernelTrace(lane_slots=lane_slots, **defaults)


@st.composite
def engine_traces(draw):
    """Small traces with idle batches, repeated slots and interleaved warps."""
    n = draw(st.integers(0, 12))
    lanes = draw(hnp.arrays(np.int64, (n, WARP_SIZE),
                            elements=st.integers(INACTIVE, 4)))
    lanes[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = INACTIVE
    return make_trace(
        lanes, n_slots=5,
        warp_id=draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        compute_cycles=np.array(draw(st.lists(
            st.sampled_from([0.0, 1.5, 120.0]), min_size=n, max_size=n))))


class TestValidation:
    def test_wrong_lane_width_rejected(self):
        with pytest.raises(ValueError):
            KernelTrace(np.zeros((3, 16), dtype=int), num_params=1, n_slots=1)

    def test_slot_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            KernelTrace(np.full((1, 32), 5), num_params=1, n_slots=5)

    def test_slot_below_inactive_rejected(self):
        with pytest.raises(ValueError):
            KernelTrace(np.full((1, 32), -2), num_params=1, n_slots=1)

    def test_bad_num_params_rejected(self):
        with pytest.raises(ValueError):
            KernelTrace(np.zeros((1, 32), dtype=int), num_params=0, n_slots=1)

    def test_values_shape_checked(self):
        with pytest.raises(ValueError):
            KernelTrace(
                np.zeros((2, 32), dtype=int),
                num_params=3,
                n_slots=1,
                values=np.zeros((2, 32, 2)),
            )

    def test_warp_id_length_checked(self):
        with pytest.raises(ValueError):
            KernelTrace(
                np.zeros((2, 32), dtype=int),
                num_params=1,
                n_slots=1,
                warp_id=np.zeros(3, dtype=int),
            )

    def test_default_warp_id_is_arange(self):
        trace = make_trace(np.zeros((4, 32), dtype=int))
        np.testing.assert_array_equal(trace.warp_id, np.arange(4))


class TestDerived:
    def test_active_lane_counts(self):
        lanes = np.full((2, 32), INACTIVE)
        lanes[0, :5] = 0
        lanes[1, :] = 1
        trace = make_trace(lanes)
        np.testing.assert_array_equal(trace.active_lane_counts, [5, 32])

    def test_total_lane_ops_scales_with_params(self):
        lanes = np.zeros((3, 32), dtype=int)
        trace = make_trace(lanes, num_params=4)
        assert trace.total_lane_ops == 3 * 32 * 4

    def test_reference_sums_requires_values(self):
        trace = make_trace(np.zeros((1, 32), dtype=int))
        with pytest.raises(ValueError):
            trace.reference_sums()

    def test_reference_sums_scatter_add(self):
        lanes = np.full((1, 32), INACTIVE)
        lanes[0, 0] = 0
        lanes[0, 1] = 1
        lanes[0, 2] = 1
        values = np.zeros((1, 32, 1))
        values[0, 0, 0] = 2.0
        values[0, 1, 0] = 3.0
        values[0, 2, 0] = 4.0
        values[0, 5, 0] = 99.0  # inactive lane: must be ignored
        trace = make_trace(lanes, num_params=1, n_slots=2, values=values)
        sums = trace.reference_sums()
        assert sums[0, 0] == 2.0
        assert sums[1, 0] == 7.0

    def test_subsample_smaller_and_stable(self):
        trace = coalesced_trace(n_batches=100, seed=3)
        sub = trace.subsample(10, seed=1)
        assert sub.n_batches == 10
        assert sub.num_params == trace.num_params
        sub2 = trace.subsample(10, seed=1)
        np.testing.assert_array_equal(sub.lane_slots, sub2.lane_slots)

    def test_subsample_noop_when_larger(self):
        trace = coalesced_trace(n_batches=10)
        assert trace.subsample(100) is trace


class TestEngineInputs:
    """The engine's per-trace inputs: built once, owned by the trace."""

    @staticmethod
    def counting_builds(monkeypatch):
        from repro.trace import events

        builds = []
        real = events.EngineInputs

        def build(**fields):
            builds.append(fields)
            return real(**fields)

        monkeypatch.setattr(events, "EngineInputs", build)
        return builds

    def test_matches_trace_arrays(self):
        lanes = np.full((4, 32), INACTIVE)
        lanes[0, :3] = [1, 1, 2]
        lanes[2, :2] = [0, 3]
        trace = make_trace(lanes, warp_id=[5, 2, 5, 2],
                           compute_cycles=np.array([1.0, 2.0, 3.0, 4.0]))
        inputs = trace.engine_inputs
        assert inputs.order == (0, 2, 1, 3)
        assert inputs.run_starts == (0, 2, 4)
        assert inputs.group_slots == (1, 2, 0, 3)
        assert inputs.shapes[0] == ()
        assert sorted(inputs.shapes) == [(), (1, 1), (2, 1)]
        assert [inputs.shapes[i] for i in inputs.pos_shape] \
            == [(2, 1), (1, 1), (), ()]
        assert inputs.pos_offset == (0, 2, 2, 4)
        assert inputs.pos_compute == (1.0, 3.0, 2.0, 4.0)

    @given(engine_traces())
    @settings(max_examples=80, deadline=None)
    def test_positions_hold_their_batch_shape_offset_and_compute(self, trace):
        inputs = trace.engine_inputs
        coalesced = trace.coalesced
        offsets = coalesced.offsets.tolist()
        sizes = coalesced.sizes.tolist()
        order = list(inputs.order)
        assert sorted(order) == list(range(trace.n_batches))
        for position, batch in enumerate(order):
            lo, hi = offsets[batch], offsets[batch + 1]
            assert inputs.shapes[inputs.pos_shape[position]] == tuple(sizes[lo:hi])
            if lo == hi:
                assert inputs.pos_shape[position] == 0
        # The per-position fields are the per-batch arrays permuted by order.
        assert inputs.pos_offset == tuple(coalesced.offsets[order].tolist())
        assert inputs.pos_compute \
            == tuple(trace.compute_cycles_per_batch[order].tolist())

    @given(engine_traces())
    @settings(max_examples=60, deadline=None)
    def test_shapes_are_distinct_and_empty_is_id_zero(self, trace):
        shapes = trace.engine_inputs.shapes
        assert shapes[0] == ()
        assert len(set(shapes)) == len(shapes)
        assert all(isinstance(size, int) for shape in shapes for size in shape)
        # Every shape but the empty one is some batch's.
        assert set(trace.engine_inputs.pos_shape) | {0} == set(range(len(shapes)))

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_warp_runs_follow_first_appearance(self, warps):
        trace = make_trace(np.zeros((len(warps), 32), dtype=int),
                           warp_id=warps)
        runs: dict[int, list[int]] = {}
        for index, warp in enumerate(warps):
            runs.setdefault(warp, []).append(index)
        inputs = trace.engine_inputs
        starts = inputs.run_starts
        assert [list(inputs.order[a:b]) for a, b in zip(starts, starts[1:])] \
            == list(runs.values())

    def test_does_not_keep_the_coalescing_alive(self):
        trace = coalesced_trace(n_batches=40, seed=3)
        inputs = trace.engine_inputs
        assert "coalesced" not in vars(trace)
        assert inputs.group_slots == tuple(trace.coalesced.slots.tolist())

    def test_built_once_per_trace_and_per_copy(self, monkeypatch):
        from repro.core import LAB
        from repro.gpu import RTX3060_SIM, simulate_kernel

        builds = self.counting_builds(monkeypatch)
        trace = coalesced_trace(n_batches=40, seed=3)
        first = simulate_kernel(trace, RTX3060_SIM, LAB())
        again = simulate_kernel(trace, RTX3060_SIM, LAB())
        assert len(builds) == 1
        assert again.to_dict() == first.to_dict()
        copy = dataclasses.replace(trace)
        assert simulate_kernel(copy, RTX3060_SIM, LAB()).to_dict() \
            == first.to_dict()
        assert len(builds) == 2
        assert copy.engine_inputs is not trace.engine_inputs

    def test_engine_leaves_inputs_unchanged(self):
        from repro.core import DAB, LAB, ArcHW
        from repro.gpu import RTX3060_SIM, Telemetry, simulate_kernel

        trace = scattered_trace(n_batches=200, n_slots=4000, num_params=9,
                                seed=5)
        inputs = trace.engine_inputs
        for strategy, telemetry in ((LAB(capacity_fraction=0.02), None),
                                    (DAB(epoch_batches=4), None),
                                    (ArcHW(), Telemetry())):
            simulate_kernel(trace, RTX3060_SIM, strategy, telemetry=telemetry)
        assert trace.engine_inputs is inputs
        assert inputs == dataclasses.replace(trace).engine_inputs


class TestCoalescer:
    def test_empty_trace(self):
        result = coalesce_trace(np.zeros((0, 32), dtype=int))
        assert result.n_groups == 0
        assert list(result.offsets) == [0]

    def test_all_same_slot_single_group(self):
        lanes = np.full((1, 32), 7)
        result = coalesce_trace(lanes)
        assert result.n_groups == 1
        assert result.slots[0] == 7
        assert result.sizes[0] == 32
        assert result.masks[0] == np.uint64(0xFFFFFFFF)

    def test_all_inactive_no_groups(self):
        lanes = np.full((2, 32), INACTIVE)
        result = coalesce_trace(lanes)
        assert result.n_groups == 0
        assert list(result.offsets) == [0, 0, 0]

    def test_two_groups_with_masks(self):
        lanes = np.full((1, 32), INACTIVE)
        lanes[0, [0, 3]] = 4
        lanes[0, [1, 2, 10]] = 9
        result = coalesce_trace(lanes)
        assert result.n_groups == 2
        by_slot = dict(zip(result.slots, range(2)))
        g4, g9 = by_slot[4], by_slot[9]
        assert result.sizes[g4] == 2
        assert result.sizes[g9] == 3
        assert lanes_from_mask(int(result.masks[g4])) == [0, 3]
        assert lanes_from_mask(int(result.masks[g9])) == [1, 2, 10]

    def test_offsets_partition_groups(self):
        trace = scattered_trace(n_batches=50, seed=2)
        result = trace.coalesced
        assert result.offsets[0] == 0
        assert result.offsets[-1] == result.n_groups
        assert (np.diff(result.offsets) >= 0).all()

    def test_coalesced_is_cached(self):
        trace = coalesced_trace(n_batches=5)
        assert trace.coalesced is trace.coalesced


@st.composite
def lane_slot_arrays(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    return draw(
        hnp.arrays(
            dtype=np.int64,
            shape=(n, WARP_SIZE),
            elements=st.integers(min_value=INACTIVE, max_value=6),
        )
    )


@given(lane_slot_arrays())
@settings(max_examples=60, deadline=None)
def test_coalescer_invariants(lane_slots):
    """Group sizes sum to active lanes; masks are disjoint and consistent."""
    result = coalesce_trace(lane_slots)
    active = (lane_slots != INACTIVE).sum()
    assert result.sizes.sum() == active
    for batch in range(len(lane_slots)):
        groups = result.groups_of(batch)
        slots = result.slots[groups]
        assert len(set(slots.tolist())) == len(slots), "slots unique per batch"
        combined = 0
        for slot, size, mask in zip(
            slots, result.sizes[groups], result.masks[groups]
        ):
            mask = int(mask)
            assert combined & mask == 0, "lane masks must be disjoint"
            combined |= mask
            lanes = lanes_from_mask(mask)
            assert len(lanes) == size
            assert all(lane_slots[batch, lane] == slot for lane in lanes)
        expected = {
            lane for lane in range(WARP_SIZE) if lane_slots[batch, lane] != INACTIVE
        }
        assert set(lanes_from_mask(combined)) == expected
