"""Determinism of the parallel experiment runner.

The contract under test: ``run_matrix`` executed serially, in parallel
with 2 and 4 workers, and from a warm disk cache all yield bit-identical
``SimResult`` fields for every cell -- and a warm-cache rerun performs
zero calls to ``simulate_kernel``.

The fast tests drive a synthetic two-workload registry (one coalesced and
butterfly-eligible, one scattered and divergent) across both simulated
GPUs; a quick real-workload slice uses NV-SP.  Set
``REPRO_FULL_DETERMINISM=1`` to additionally run the full Figure 22
workload set with 4 workers (minutes of runtime).
"""

import os

import pytest

from repro.experiments import diskcache, runner
from repro.experiments.parallel import (
    plan_cells,
    run_matrix_parallel,
)
from repro.experiments.runner import (
    SWEEP_THRESHOLDS,
    clear_caches,
    run_matrix,
)
from repro.trace import coalesced_trace, scattered_trace
from repro.workloads import WORKLOAD_KEYS

STRATEGIES = ["baseline", "ARC-HW", "ARC-SW-B-8", "ARC-SW-S-16",
              "CCCL", "LAB"]
GPUS = ["3060-Sim", "4090-Sim"]


class FakeWorkload:
    """Deterministic synthetic stand-in for a Table 2 workload."""

    def __init__(self, key, bfly=True):
        self.key = key
        self._bfly = bfly

    def capture_trace(self):
        factory = coalesced_trace if self._bfly else scattered_trace
        return factory(n_batches=300, num_params=4, seed=11, name=self.key)


@pytest.fixture
def fake_registry(monkeypatch):
    fakes = {"P1": FakeWorkload("P1"), "P2": FakeWorkload("P2", bfly=False)}
    monkeypatch.setattr(runner, "load_workload", lambda key: fakes[key])
    return fakes


def cell_tuples(cells):
    """Full content of every cell, in order, for exact comparison."""
    return [
        (c.workload, c.gpu, c.strategy, c.result.to_dict()) for c in cells
    ]


def test_parallel_2_and_4_workers_match_serial(fake_registry):
    diskcache.configure(enabled=False)  # force genuine simulation
    serial = run_matrix(["P1", "P2"], STRATEGIES, GPUS)
    assert serial, "empty matrix would make this test vacuous"
    for jobs in (2, 4):
        clear_caches()
        parallel = run_matrix_parallel(
            ["P1", "P2"], STRATEGIES, GPUS, jobs=jobs
        )
        assert cell_tuples(parallel) == cell_tuples(serial), jobs
        for before, after in zip(serial, parallel):
            assert after.result.total_cycles == before.result.total_cycles
            assert (after.result.lsu_stall_cycles
                    == before.result.lsu_stall_cycles)
            assert (after.result.local_unit_stall_cycles
                    == before.result.local_unit_stall_cycles)
            assert (after.result.lsu_full_events
                    == before.result.lsu_full_events)


def test_warm_disk_cache_is_identical_and_never_simulates(
    fake_registry, monkeypatch
):
    cold = run_matrix_parallel(["P1", "P2"], STRATEGIES, GPUS, jobs=2)
    clear_caches()  # drop memory; the per-test disk cache stays warm

    calls = []
    monkeypatch.setattr(
        runner, "simulate_kernel",
        lambda *a, **k: calls.append(a) or pytest.fail(
            "warm-cache rerun must not reach simulate_kernel"
        ),
    )
    warm = run_matrix(["P1", "P2"], STRATEGIES, GPUS)
    assert calls == []
    assert cell_tuples(warm) == cell_tuples(cold)


def test_parallel_seeds_parent_memory_cache(fake_registry, monkeypatch):
    cells = run_matrix_parallel(["P1"], ["baseline", "ARC-HW"],
                                ["3060-Sim"], jobs=2)
    monkeypatch.setattr(
        runner, "simulate_kernel",
        lambda *a, **k: pytest.fail("cell should come from memory"),
    )
    followup = runner.get_result("P1", "3060-Sim", "ARC-HW")
    assert followup is cells[-1].result


def test_plan_matches_serial_cell_order(fake_registry):
    serial = run_matrix(["P1", "P2"], STRATEGIES, GPUS)
    specs = plan_cells(["P1", "P2"], STRATEGIES, GPUS)
    assert [(s.workload, s.gpu.name, s.strategy) for s in specs] == [
        (c.workload, c.gpu, c.strategy) for c in serial
    ]
    # The divergent workload's SW-B cells are skipped, like serial.
    assert all(
        not (s.workload == "P2" and "SW-B" in s.strategy) for s in specs
    )


def test_jobs_validation_and_serial_delegation(fake_registry):
    with pytest.raises(ValueError):
        run_matrix_parallel(["P1"], ["baseline"], ["3060-Sim"], jobs=0)
    with pytest.raises(KeyError):
        run_matrix_parallel(["P1"], ["warp-magic"], ["3060-Sim"], jobs=2)
    serial = run_matrix_parallel(["P1"], ["baseline"], ["3060-Sim"], jobs=1)
    assert cell_tuples(serial) == cell_tuples(
        run_matrix(["P1"], ["baseline"], ["3060-Sim"])
    )


def test_worker_trace_cache_is_a_bounded_lru(tmp_path, monkeypatch):
    """A worker keeps at most ``_WORKER_TRACE_SLOTS`` traces, evicting
    the least recently used; an evicted trace reloads from the spool
    and simulates bit-identically."""
    from repro.experiments import faults, parallel
    from repro.gpu import SIMULATED_GPUS
    from repro.trace.io import save_trace

    slots = parallel._WORKER_TRACE_SLOTS
    names = [f"T{i}" for i in range(slots + 2)]
    spool = tmp_path / "spool"
    spool.mkdir()
    fingerprints = {}
    for seed, name in enumerate(names):
        trace = coalesced_trace(n_batches=20, num_params=4, seed=seed,
                                name=name)
        fingerprints[name] = trace.fingerprint
        save_trace(trace, spool / f"{trace.fingerprint}.npz")
    monkeypatch.setattr(parallel, "_worker_trace_dir", None)
    monkeypatch.setattr(parallel, "_worker_traces", {})
    # _worker_init also calls faults.mark_worker(); undo that sticky
    # flag so crash/hang faults stay parent-suppressed in later tests.
    monkeypatch.setattr(faults, "_in_worker", faults._in_worker)
    parallel._worker_init(str(spool), None, False)

    def run(name):
        spec = parallel.CellSpec(name, SIMULATED_GPUS["3060-Sim"],
                                 "baseline", fingerprints[name])
        return parallel._run_spec(spec, 1).to_dict()

    def loaded():
        return [trace.name for trace in parallel._worker_traces.values()]

    first = {name: run(name) for name in names[:slots]}
    run(names[0])  # a hit: T0 becomes the most recently used
    for name in names[slots:]:
        run(name)
        assert len(parallel._worker_traces) == slots
    # T1 and T2 were the least recently used when T16 and T17 loaded.
    assert loaded() == [*names[3:slots], names[0], *names[slots:]]
    assert run(names[1]) == first[names[1]]
    assert len(parallel._worker_traces) == slots
    assert names[3] not in loaded()


def test_real_workload_slice_parallel_determinism():
    """Serial vs 2-worker parallel on a real (fast) Table 2 workload."""
    diskcache.configure(enabled=False)
    workloads, strategies, gpus = ["NV-SP"], ["baseline", "ARC-HW",
                                              "ARC-SW-S-8"], ["3060-Sim"]
    serial = run_matrix(workloads, strategies, gpus)
    clear_caches()
    parallel = run_matrix_parallel(workloads, strategies, gpus, jobs=2)
    assert cell_tuples(parallel) == cell_tuples(serial)


@pytest.mark.skipif(
    not os.environ.get("REPRO_FULL_DETERMINISM"),
    reason="full Figure 22 determinism sweep is minutes long; "
    "set REPRO_FULL_DETERMINISM=1 to run it",
)
def test_fig22_workload_set_with_4_workers(monkeypatch):
    """The acceptance bar: the full Figure 22 workload set, 4 workers,
    identical to serial; then a warm-cache rerun with zero simulations."""
    strategies = ["baseline"] + [
        f"ARC-SW-{variant}-{threshold}"
        for variant in ("B", "S")
        for threshold in SWEEP_THRESHOLDS
    ]
    workloads = list(WORKLOAD_KEYS)
    test_cache_dir = diskcache.active_cache().root  # conftest's tmp dir
    diskcache.configure(enabled=False)
    serial = run_matrix(workloads, strategies, GPUS)
    clear_caches()
    diskcache.configure(root=test_cache_dir)

    parallel = run_matrix_parallel(workloads, strategies, GPUS, jobs=4)
    assert cell_tuples(parallel) == cell_tuples(serial)

    clear_caches()
    calls = []
    monkeypatch.setattr(
        runner, "simulate_kernel",
        lambda *a, **k: calls.append(a) or pytest.fail("must hit cache"),
    )
    warm = run_matrix(workloads, strategies, GPUS)
    assert calls == []
    assert cell_tuples(warm) == cell_tuples(serial)
