"""Property tests over *every* atomic strategy.

``tests/test_properties.py`` checks engine-level conservation for a
hand-picked strategy sample; this module sweeps the full
``STRATEGY_FACTORIES`` registry (all ARC-SW thresholds included), plus
each concrete strategy class the registry does not construct (found
the way ``tests/test_invariants.py`` finds them, built with its
defaults), and holds each to the
:class:`~repro.core.base.AtomicStrategy` contract:

* ``reduce_batch_values`` must cover exactly the batch's active slot
  set, emit each slot at most once, and conserve the scatter-add mass
  (modulo FP reassociation -- butterfly order differs from serialized
  order, but both must agree with the float64 reference to tolerance);
* repeated evaluation from fresh instances must be deterministic --
  bitwise for the functional reduction, full ``SimResult.to_dict()``
  equality for whole-kernel simulation;
* ``plan_batch`` on a batch with no active lane must return exactly
  ``idle_plan()``, carry no memory traffic and never read the engine
  (the engine applies ``idle_plan()`` to idle batches unseen);
* every strategy's ``plan_shape`` must be pure: it leaves the instance
  unchanged and returns equal plans for equal arguments, whose request
  slots are group indices (the engine plans each batch shape once per
  kernel and reuses the result).

These invariants are what the cache's and the figure regressions'
exact-equality checks stand on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import BatchView, EngineView
from repro.experiments.runner import STRATEGY_FACTORIES
from repro.gpu import RTX3060_SIM, simulate_kernel
from repro.gpu.warp import WARP_SIZE
from repro.trace import KernelTrace
from tests.test_invariants import concrete_strategies

_REGISTERED = {type(make()) for make in STRATEGY_FACTORIES.values()}
FACTORIES = {**STRATEGY_FACTORIES,
             **{cls.__name__: cls for cls in concrete_strategies()
                if cls not in _REGISTERED}}
ALL_STRATEGIES = sorted(FACTORIES)


def make_strategy(name):
    return FACTORIES[name]()

batch_params = st.fixed_dictionaries(
    {
        "n_slots": st.integers(min_value=1, max_value=24),
        "num_params": st.integers(min_value=1, max_value=6),
        "density": st.floats(min_value=0.0, max_value=1.0),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


def build_batch(params):
    """One warp batch: per-lane slot targets (-1 = inactive) + values."""
    rng = np.random.default_rng(params["seed"])
    active = rng.random(WARP_SIZE) < params["density"]
    slots = rng.integers(0, params["n_slots"], size=WARP_SIZE)
    lane_slots = np.where(active, slots, -1)
    values = rng.normal(size=(WARP_SIZE, params["num_params"]))
    return lane_slots, values


def reference_scatter_add(lane_slots, values):
    """Float64 scatter-add ground truth, slot -> summed params vector."""
    reference = {}
    for lane, slot in enumerate(lane_slots):
        if slot < 0:
            continue
        if int(slot) not in reference:
            reference[int(slot)] = np.zeros(values.shape[1])
        reference[int(slot)] += values[lane].astype(np.float64)
    return reference


@pytest.mark.parametrize("name", ALL_STRATEGIES)
@given(batch_params)
@settings(max_examples=25, deadline=None)
def test_reduce_covers_slot_set_without_duplicates(name, params):
    """Every active slot appears exactly once: no lane's contribution is
    dropped, and no (slot, value) pair is applied twice."""
    lane_slots, values = build_batch(params)
    contributions = make_strategy(name).reduce_batch_values(
        lane_slots, values
    )
    slots = [slot for slot, _ in contributions]
    assert len(slots) == len(set(slots)), f"{name}: duplicate slot"
    expected = {int(s) for s in np.unique(lane_slots[lane_slots >= 0])}
    assert set(slots) == expected, f"{name}: slot set drifted"


@pytest.mark.parametrize("name", ALL_STRATEGIES)
@given(batch_params)
@settings(max_examples=25, deadline=None)
def test_reduce_conserves_scatter_add_mass(name, params):
    """Any reduction order must agree with the scatter-add reference."""
    lane_slots, values = build_batch(params)
    contributions = make_strategy(name).reduce_batch_values(
        lane_slots, values
    )
    reference = reference_scatter_add(lane_slots, values)
    for slot, total in contributions:
        np.testing.assert_allclose(
            total, reference[slot], rtol=1e-9, atol=1e-12,
            err_msg=f"{name}: slot {slot} lost mass",
        )


@pytest.mark.parametrize("name", ALL_STRATEGIES)
@given(batch_params)
@settings(max_examples=15, deadline=None)
def test_reduce_is_deterministic_across_fresh_instances(name, params):
    lane_slots, values = build_batch(params)
    first = make_strategy(name).reduce_batch_values(lane_slots, values)
    second = make_strategy(name).reduce_batch_values(lane_slots, values)
    assert [slot for slot, _ in first] == [slot for slot, _ in second]
    for (_, a), (_, b) in zip(first, second):
        # Bitwise: same instance-independent code path, same FP order.
        assert np.array_equal(a, b), name


trace_params = st.fixed_dictionaries(
    {
        "n_batches": st.integers(min_value=1, max_value=24),
        "n_slots": st.integers(min_value=1, max_value=16),
        "num_params": st.integers(min_value=1, max_value=4),
        "density": st.floats(min_value=0.05, max_value=1.0),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


def build_trace(params) -> KernelTrace:
    rng = np.random.default_rng(params["seed"])
    active = rng.random((params["n_batches"], WARP_SIZE)) < params["density"]
    slots = rng.integers(0, params["n_slots"],
                         size=(params["n_batches"], WARP_SIZE))
    return KernelTrace(
        lane_slots=np.where(active, slots, -1),
        num_params=params["num_params"],
        n_slots=params["n_slots"],
        compute_cycles=20.0,
    )


@pytest.mark.parametrize("name", ALL_STRATEGIES)
@given(trace_params)
@settings(max_examples=8, deadline=None)
def test_simulation_deterministic_for_every_strategy(name, params):
    """Two fresh instances replay the same trace to identical results --
    the whole-document exactness the disk cache relies on."""
    trace = build_trace(params)
    first = simulate_kernel(trace, RTX3060_SIM, make_strategy(name))
    second = simulate_kernel(trace, RTX3060_SIM, make_strategy(name))
    assert first.to_dict() == second.to_dict(), name


@pytest.mark.parametrize("name", ALL_STRATEGIES)
@given(trace_params)
@settings(max_examples=8, deadline=None)
def test_accounting_is_sane_for_every_strategy(name, params):
    """Generic sanity every strategy must satisfy: non-negative counters
    and local + ROP work that at least touches every lane value."""
    trace = build_trace(params)
    result = simulate_kernel(trace, RTX3060_SIM, make_strategy(name))
    assert result.total_cycles > 0
    for counter in ("rop_ops", "ru_values", "buffer_ops", "l1_tag_ops",
                    "shuffle_ops", "lane_ops"):
        assert getattr(result, counter) >= 0, (name, counter)
    assert result.lane_ops == trace.total_lane_ops, name
    # A lane value is either sent to the ROPs, merged by shuffles,
    # serially reduced on the FPU, or absorbed by a local buffer.
    touched = (result.rop_ops + result.shuffle_ops + result.ru_values
               + result.buffer_ops + result.l1_tag_ops)
    assert touched >= min(result.lane_ops, 1), name


class UnreadableEngine(EngineView):
    """EngineView whose every read fails the test."""

    @property
    def now(self):
        raise AssertionError("idle planning read engine.now")

    def lsu_pressure(self, sm):
        raise AssertionError("idle planning read lsu_pressure")

    def ru_backlog(self, subcore):
        raise AssertionError("idle planning read ru_backlog")


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_empty_batch_plans_as_idle_plan_without_traffic(name):
    strategy = make_strategy(name)
    trace = build_trace({"n_batches": 1, "n_slots": 4, "num_params": 3,
                         "density": 0.0, "seed": 0})
    strategy.begin_kernel(trace, RTX3060_SIM)
    empty = BatchView(0, 1, 5, [], [], trace.num_params)
    plan = strategy.plan_batch(empty, UnreadableEngine())
    idle = strategy.idle_plan()
    assert plan == idle, name
    assert not (idle.requests or idle.ru_values or idle.sm_buffer_ops
                or idle.l1_tag_ops), name


def _group_sizes(draws):
    """The longest prefix of *draws* that fits in one warp."""
    sizes = []
    for size in draws:
        if sum(sizes) + size > WARP_SIZE:
            break
        sizes.append(size)
    return tuple(sizes)


shape_params = st.fixed_dictionaries(
    {
        "sizes": st.lists(st.integers(min_value=1, max_value=WARP_SIZE),
                          min_size=1, max_size=8).map(_group_sizes),
        "num_params": st.integers(min_value=1, max_value=6),
        "mode": st.sampled_from([None, False, True]),
    }
)


@pytest.mark.parametrize("name", ALL_STRATEGIES)
@given(shape_params)
@settings(max_examples=25, deadline=None)
def test_plan_shape_is_pure(name, params):
    """No instance state changes, and a repeated call returns an equal
    plan."""
    strategy = make_strategy(name)
    trace = build_trace({"n_batches": 1, "n_slots": 4, "num_params": 3,
                         "density": 1.0, "seed": 0})
    strategy.begin_kernel(trace, RTX3060_SIM)
    before = dict(vars(strategy))
    args = (params["sizes"], params["num_params"], params["mode"])
    first = strategy.plan_shape(*args)
    assert vars(strategy) == before, name
    assert strategy.plan_shape(*args) == first, name
    assert vars(strategy) == before, name
    assert all(0 <= request.slot < len(params["sizes"])
               for request in first.requests), name


def test_registry_names_are_stable():
    """The registry's names are API: perfbench, the engine
    guard fixtures and the paper's figures all reference them."""
    assert sorted(STRATEGY_FACTORIES) == sorted(
        ["baseline", "ARC-HW", "CCCL", "LAB", "LAB-ideal", "PHI"]
        + [f"ARC-SW-B-{t}" for t in (0, 4, 8, 16, 24)]
        + [f"ARC-SW-S-{t}" for t in (0, 4, 8, 16, 24)]
    )
    for name in STRATEGY_FACTORIES:
        instance = make_strategy(name)
        assert make_strategy(name).name == instance.name  # stable label
        assert isinstance(instance.name, str) and instance.name
