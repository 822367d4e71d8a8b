"""Tests for the engine's greedy warp dispatch and program ordering."""

import dataclasses

import numpy as np
import pytest

from repro.bench.metrics import sim_digest
from repro.core import ArcSWButterfly, BaselineAtomic
from repro.core.base import AtomicStrategy, BatchPlan
from repro.gpu import RTX4090_SIM, simulate_kernel
from repro.gpu.warp import WARP_SIZE
from repro.trace import KernelTrace


class RecordingStrategy(AtomicStrategy):
    """Records (batch index, subcore, time) for dispatch assertions."""

    name = "recording"

    def __init__(self):
        self.events = []

    def begin_kernel(self, trace, config):
        self.events = []

    def plan_shape(self, sizes, num_params, mode):
        return BatchPlan(issue_cycles=1.0)

    def touch(self, batch, engine):
        self.events.append((batch.index, batch.subcore, engine.now))


def tiny_gpu(subcores=4):
    return dataclasses.replace(
        RTX4090_SIM, name="tiny", num_sms=subcores, subcores_per_sm=1,
        num_rops=4, num_partitions=2, interconnect_bw=4.0,
    )


def trace_with_warps(warp_ids, compute=10.0):
    warp_ids = np.asarray(warp_ids)
    lanes = np.zeros((len(warp_ids), WARP_SIZE), dtype=np.int64)
    return KernelTrace(
        lanes, num_params=1, n_slots=1, warp_id=warp_ids,
        compute_cycles=compute,
    )


def test_per_warp_program_order_preserved():
    """Batches of one warp execute in trace order on one sub-core."""
    trace = trace_with_warps([0, 1, 0, 1, 0, 1])
    strategy = RecordingStrategy()
    simulate_kernel(trace, tiny_gpu(subcores=2), strategy)
    by_subcore = {}
    for index, subcore, _ in strategy.events:
        by_subcore.setdefault(subcore, []).append(index)
    # Each warp's batch indices appear in increasing trace order.
    for indices in by_subcore.values():
        assert indices == sorted(indices)
    # The two warps land on two different sub-cores.
    assert len(by_subcore) == 2


def test_greedy_dispatch_balances_uneven_warps():
    """A long warp must not leave other sub-cores idle: short warps are
    redistributed to whoever frees up first."""
    # Warp 0 has 30 batches; warps 1..6 have 2 each.  Two sub-cores.
    warp_ids = [0] * 30 + [w for w in range(1, 7) for _ in range(2)]
    trace = trace_with_warps(warp_ids, compute=10.0)
    strategy = RecordingStrategy()
    simulate_kernel(trace, tiny_gpu(subcores=2), strategy)
    counts = {}
    for _, subcore, _ in strategy.events:
        counts[subcore] = counts.get(subcore, 0) + 1
    # Perfect split would be 21/21; greedy gets within one warp of it.
    assert max(counts.values()) <= 30  # long warp stays on one sub-core
    assert min(counts.values()) >= 12  # the other picks up all short ones


def test_more_subcores_than_warps_leaves_spares_idle():
    trace = trace_with_warps([0, 0, 1, 1])
    strategy = RecordingStrategy()
    simulate_kernel(trace, tiny_gpu(subcores=8), strategy)
    used = {subcore for _, subcore, _ in strategy.events}
    assert len(used) == 2


def test_dispatch_times_monotone_per_subcore():
    trace = trace_with_warps([0, 1, 2, 0, 1, 2, 0, 1, 2])
    strategy = RecordingStrategy()
    simulate_kernel(trace, tiny_gpu(subcores=3), strategy)
    by_subcore = {}
    for _, subcore, now in strategy.events:
        by_subcore.setdefault(subcore, []).append(now)
    for times in by_subcore.values():
        assert times == sorted(times)


def test_total_time_benefits_from_redistribution():
    """Greedy dispatch beats the static modulo assignment it replaced."""
    # 64 compute-only warps of wildly uneven length on 4 sub-cores.
    rng = np.random.default_rng(0)
    lengths = rng.integers(1, 40, size=64)
    warp_ids = np.repeat(np.arange(64), lengths)
    lanes = np.full((len(warp_ids), WARP_SIZE), -1, dtype=np.int64)
    trace = KernelTrace(
        lanes, num_params=1, n_slots=1, warp_id=warp_ids,
        compute_cycles=25.0,
    )
    result = simulate_kernel(trace, tiny_gpu(subcores=4), BaselineAtomic())
    ideal = 25.0 * len(warp_ids) / 4
    # Within 1.5x of the perfectly balanced makespan despite warp skew
    # (static modulo assignment lands far worse on this distribution).
    assert result.total_cycles < 1.5 * ideal


# --------------------------------------------------------------------- #
# Idle-batch folding
# --------------------------------------------------------------------- #

#: Per-warp batch kinds in program order: ``A`` has active lanes, ``E``
#: has none.  Warps start and end with runs of idle batches (one is idle
#: throughout, one is a single idle batch), and ten warps share four
#: sub-cores, so warps are pulled from the pending queue while others
#: are mid-run.
FOLD_PATTERNS = ["EEAEEAEE", "AEEE", "EEEE", "EAAEE", "E", "EEAEAEEE",
                 "AA", "EEEA", "EAE", "EEAEE"]


def fold_trace():
    """The warps of :data:`FOLD_PATTERNS`, interleaved round-robin."""
    order = []
    cursors = [0] * len(FOLD_PATTERNS)
    while any(c < len(p) for c, p in zip(cursors, FOLD_PATTERNS)):
        for warp, pattern in enumerate(FOLD_PATTERNS):
            if cursors[warp] < len(pattern):
                order.append((warp, pattern[cursors[warp]]))
                cursors[warp] += 1
    lanes = np.full((len(order), WARP_SIZE), -1, dtype=np.int64)
    compute = np.empty(len(order))
    for row, (_, kind) in enumerate(order):
        if kind == "A":
            # Six groups of five or six lanes: six transactions per batch.
            lanes[row] = (np.arange(WARP_SIZE) + 3 * row) % 6
            compute[row] = 12.5
        else:
            compute[row] = 2.0 + (row % 3) * 1.5
    return KernelTrace(lanes, num_params=2, n_slots=8,
                       warp_id=[warp for warp, _ in order],
                       compute_cycles=compute)


def fold_gpu():
    """Two SMs of two sub-cores with a two-entry LSU queue that fills."""
    return dataclasses.replace(
        RTX4090_SIM, name="fold", num_sms=2, subcores_per_sm=2,
        num_rops=2, num_partitions=2, lsu_queue_depth=2,
        interconnect_bw=0.5,
    )


def recording(base):
    """*base* strategy that logs ``(index, subcore, engine.now)`` of
    every batch with active lanes."""

    class Recording(base):
        def begin_kernel(self, trace, config):
            super().begin_kernel(trace, config)
            self.events = []

        def touch(self, batch, engine):
            self.events.append((batch.index, batch.subcore, engine.now))
            return super().touch(batch, engine)

    return Recording


#: Recorded from the engine before idle batches were folded into the
#: preceding event: ``(sim_digest, total_cycles, lsu_full_events)`` and
#: the dispatch log of the batches with active lanes.
FOLD_EXPECTED = {
    "BaselineAtomic": (
        "2835281795335c7d", 1626.0680000000007, 68,
        [(1, 1, 0.0), (13, 3, 2.0), (19, 0, 5.5), (23, 2, 27.5),
         (6, 1, 148.848), (22, 3, 263.47600000000006),
         (38, 0, 397.10400000000004), (36, 2, 523.2320000000001),
         (15, 1, 647.86), (17, 3, 787.9879999999999),
         (26, 0, 913.6159999999999), (32, 1, 1169.372)],
    ),
    "ArcSWButterfly": (
        "548c069c77e0599a", 1632.0680000000007, 68,
        [(1, 1, 0.0), (13, 3, 5.0), (19, 0, 11.5), (23, 2, 48.5),
         (6, 1, 163.848), (22, 3, 269.47600000000006),
         (38, 0, 409.10400000000004), (36, 2, 532.2320000000001),
         (15, 1, 653.86), (17, 3, 802.9879999999999),
         (26, 0, 931.6159999999999), (32, 1, 1184.372)],
    ),
}


@pytest.mark.parametrize("base", [BaselineAtomic, ArcSWButterfly],
                         ids=lambda cls: cls.__name__)
def test_idle_batch_fold_keeps_warp_pull_order(base):
    """Folding idle batches into the preceding event must not change
    which sub-core pulls which pending warp, or when batches dispatch.
    ArcSWButterfly's idle plan spends issue cycles; the baseline's
    does not."""
    digest, total_cycles, lsu_full_events, log = FOLD_EXPECTED[
        base.__name__]
    strategy = recording(base)()
    result = simulate_kernel(fold_trace(), fold_gpu(), strategy)
    assert strategy.events == log
    assert result.total_cycles == total_cycles
    assert result.lsu_full_events == lsu_full_events
    assert sim_digest(result) == digest
