"""Tests for the persistent on-disk simulation cache.

The cache key must change whenever anything that determines a simulation's
outcome changes -- every GPUConfig field (cost/energy models included),
the trace's content, or a strategy parameter -- and must be stable across
instances, dict orderings and processes.  Corrupt entries must degrade to
re-simulation (quarantined as evidence, never deleted, never crashing),
and ``clear_caches(disk=True)`` must leave no state behind for the next
test to trip over.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import LAB, ArcHW, ArcSWButterfly
from repro.experiments import diskcache, runner
from repro.experiments.diskcache import (
    DiskCache,
    result_key,
    strategy_fingerprint,
)
from repro.experiments.runner import clear_caches, get_result, seed_trace
from repro.gpu import RTX3060_SIM, RTX4090_SIM, simulate_kernel
from repro.gpu.config import CostModel, EnergyModel
from repro.trace import coalesced_trace, mixed_locality_trace
from tests.test_engine_dispatch import fold_gpu, fold_trace

BASE_TRACE = coalesced_trace(n_batches=64, num_params=4, seed=7, name="base")
BASE_STRATEGY = ArcSWButterfly(8)


def base_key():
    return result_key(RTX3060_SIM, BASE_TRACE, BASE_STRATEGY)


# --------------------------------------------------------------------- #
# Key sensitivity: every input field must matter
# --------------------------------------------------------------------- #


GPU_FIELD_PERTURBATIONS = {
    "name": "other-name",
    "num_sms": RTX3060_SIM.num_sms + 1,
    "subcores_per_sm": RTX3060_SIM.subcores_per_sm + 1,
    "num_rops": RTX3060_SIM.num_rops + RTX3060_SIM.num_partitions,
    "num_partitions": 6,  # still divides 48 ROPs evenly
    "lsu_queue_depth": RTX3060_SIM.lsu_queue_depth + 1,
    "interconnect_bw": RTX3060_SIM.interconnect_bw * 2,
    "clock_ghz": RTX3060_SIM.clock_ghz + 0.1,
    "registers_per_sm": RTX3060_SIM.registers_per_sm + 1,
    "l1_kib_per_sm": RTX3060_SIM.l1_kib_per_sm + 1,
    "l2_mib": RTX3060_SIM.l2_mib + 0.5,
    "dram_channels": RTX3060_SIM.dram_channels + 1,
    "dram_banks": RTX3060_SIM.dram_banks + 1,
    "dram_gib": RTX3060_SIM.dram_gib + 1,
}


@pytest.mark.parametrize("field", sorted(GPU_FIELD_PERTURBATIONS))
def test_key_changes_with_every_gpu_field(field):
    changed = dataclasses.replace(
        RTX3060_SIM, **{field: GPU_FIELD_PERTURBATIONS[field]}
    )
    assert result_key(changed, BASE_TRACE, BASE_STRATEGY) != base_key()


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(CostModel)]
)
def test_key_changes_with_every_cost_model_field(field):
    changed = RTX3060_SIM.with_cost(
        **{field: getattr(RTX3060_SIM.cost, field) + 1.0}
    )
    assert result_key(changed, BASE_TRACE, BASE_STRATEGY) != base_key()


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(EnergyModel)]
)
def test_key_changes_with_every_energy_model_field(field):
    changed = dataclasses.replace(
        RTX3060_SIM,
        energy=dataclasses.replace(
            RTX3060_SIM.energy,
            **{field: getattr(RTX3060_SIM.energy, field) + 1.0},
        ),
    )
    assert result_key(changed, BASE_TRACE, BASE_STRATEGY) != base_key()


def test_key_changes_with_trace_content():
    variants = []
    flipped = BASE_TRACE.lane_slots.copy()
    flipped[0, 0] = (flipped[0, 0] + 1) % BASE_TRACE.n_slots
    variants.append(dataclasses.replace(BASE_TRACE, lane_slots=flipped))
    variants.append(dataclasses.replace(BASE_TRACE, num_params=5))
    variants.append(dataclasses.replace(BASE_TRACE, n_slots=512))
    variants.append(dataclasses.replace(BASE_TRACE, bfly_eligible=False))
    variants.append(dataclasses.replace(BASE_TRACE, compute_cycles=130.0))
    variants.append(
        dataclasses.replace(BASE_TRACE, warp_id=BASE_TRACE.warp_id[::-1])
    )
    variants.append(coalesced_trace(n_batches=64, num_params=4, seed=8))
    keys = {result_key(RTX3060_SIM, v, BASE_STRATEGY) for v in variants}
    assert base_key() not in keys
    assert len(keys) == len(variants)  # all pairwise distinct too


def test_trace_name_is_cosmetic():
    renamed = dataclasses.replace(BASE_TRACE, name="renamed")
    assert result_key(RTX3060_SIM, renamed, BASE_STRATEGY) == base_key()


@pytest.mark.parametrize("strategy", sorted(runner.STRATEGY_FACTORIES))
def test_trace_name_never_reaches_a_simulated_number(strategy):
    """The result half of the test above: the key leaves ``name`` out, so
    a renamed trace must simulate to the same numbers under every
    strategy, with only the ``trace_name`` label differing.  Two traces:
    busy batches under LSU contention, and idle batches folded into
    their neighbours' events."""
    cases = ((mixed_locality_trace(n_batches=48, num_params=4, seed=5),
              RTX3060_SIM),
             (fold_trace(), fold_gpu()))
    for trace, gpu in cases:
        renamed = dataclasses.replace(trace, name="renamed")
        results = [
            dataclasses.asdict(simulate_kernel(
                t, gpu, runner.STRATEGY_FACTORIES[strategy]()))
            for t in (trace, renamed)
        ]
        assert [r.pop("trace_name") for r in results] == [
            trace.name, "renamed"]
        assert results[0] == results[1]


def test_key_changes_with_strategy_parameters():
    keys = {
        result_key(RTX3060_SIM, BASE_TRACE, strategy)
        for strategy in (
            ArcSWButterfly(8),
            ArcSWButterfly(16),
            ArcHW(),
            ArcHW(policy="always"),
            ArcHW(stall_threshold=0.5),
            LAB(),
            LAB(capacity_fraction=0.25),
        )
    }
    assert len(keys) == 7


def test_key_stable_across_instances_and_gpus():
    assert result_key(RTX3060_SIM, BASE_TRACE, ArcSWButterfly(8)) == base_key()
    assert (
        result_key(RTX4090_SIM, BASE_TRACE, BASE_STRATEGY) != base_key()
    )


def test_strategy_fingerprint_is_sorted_json():
    text = strategy_fingerprint(ArcHW(policy="always"))
    params = json.loads(text)["params"]
    assert params["policy"] == "always"
    assert list(params) == sorted(params)


def test_strategy_fingerprint_rejects_non_scalar_params():
    """A non-scalar constructor parameter must fail loudly, not be
    silently dropped (which would collide differently-behaving
    strategies onto one cache entry)."""

    class ListParamStrategy(ArcSWButterfly):
        def __init__(self, thresholds):
            super().__init__(thresholds[0])
            self.thresholds = thresholds

    with pytest.raises(TypeError, match="thresholds"):
        strategy_fingerprint(ListParamStrategy([8, 16]))


def test_every_registry_strategy_is_fingerprintable():
    """All shipped strategies use scalar parameters only, so the loud
    non-scalar rejection never fires on the real registry."""
    for name in runner.STRATEGY_FACTORIES:
        text = strategy_fingerprint(runner.make_strategy(name))
        json.loads(text)  # canonical JSON, parseable


def test_key_changes_with_engine_identity(monkeypatch):
    """Editing the simulation engine must invalidate every entry: a warm
    cache may never serve results computed by a different engine."""
    unperturbed = base_key()
    monkeypatch.setattr(diskcache, "_engine_fingerprint", "0" * 64)
    assert base_key() != unperturbed


def test_engine_fingerprint_tracks_source_content(tmp_path):
    def make_tree(root, engine_body):
        for package in ("core", "gpu", "trace"):
            pkg = root / package
            pkg.mkdir(parents=True)
            (pkg / "__init__.py").write_text("")
        (root / "gpu" / "engine.py").write_text(engine_body)
        return root

    a = make_tree(tmp_path / "a", "CYCLES = 1\n")
    b = make_tree(tmp_path / "b", "CYCLES = 1\n")
    c = make_tree(tmp_path / "c", "CYCLES = 2\n")
    assert diskcache.engine_fingerprint(a) == diskcache.engine_fingerprint(b)
    assert diskcache.engine_fingerprint(a) != diskcache.engine_fingerprint(c)
    # Renaming a file changes the fingerprint even with identical bytes.
    (b / "gpu" / "engine.py").rename(b / "gpu" / "engine2.py")
    assert diskcache.engine_fingerprint(a) != diskcache.engine_fingerprint(b)


def test_engine_fingerprint_covers_installed_engine():
    """The process-wide fingerprint hashes the real repro packages and
    is stable within a process (source files do not change under us)."""
    first = diskcache.engine_fingerprint()
    assert first == diskcache.engine_fingerprint()
    import repro.gpu.engine as engine_mod

    root = Path(engine_mod.__file__).resolve().parents[1]
    assert diskcache.engine_fingerprint(root) == first


def test_key_stable_across_processes():
    """The key must not depend on per-process state (hash randomization,
    dict ordering, import order)."""
    script = (
        "from repro.experiments.diskcache import result_key\n"
        "from repro.gpu import RTX3060_SIM\n"
        "from repro.trace import coalesced_trace\n"
        "from repro.core import ArcSWButterfly\n"
        "trace = coalesced_trace(n_batches=64, num_params=4, seed=7,"
        " name='base')\n"
        "print(result_key(RTX3060_SIM, trace, ArcSWButterfly(8)))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[1] / "src")
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == base_key()


# --------------------------------------------------------------------- #
# Storage behaviour: round trips, corruption, persistence
# --------------------------------------------------------------------- #


def simulated_result():
    return runner.simulate_cell(BASE_TRACE, RTX3060_SIM, ArcSWButterfly(8))


def test_round_trip_equality(tmp_path):
    cache = DiskCache(tmp_path)
    result = simulated_result()
    cache.store(base_key(), result)
    assert cache.load(base_key()) == result
    assert cache.stats.hits == 1 and cache.stats.writes == 1


def test_cold_lookup_is_a_miss(tmp_path):
    cache = DiskCache(tmp_path)
    assert cache.load(base_key()) is None
    assert cache.stats.misses == 1 and cache.stats.errors == 0


def test_persists_across_cache_instances(tmp_path):
    DiskCache(tmp_path).store(base_key(), simulated_result())
    fresh = DiskCache(tmp_path)  # a later session
    assert fresh.load(base_key()) == simulated_result()


@pytest.mark.parametrize(
    "corruption",
    ["truncate", "garbage", "wrong_version", "foreign_schema"],
)
def test_corrupt_entry_falls_back_to_miss(tmp_path, corruption):
    cache = DiskCache(tmp_path)
    cache.store(base_key(), simulated_result())
    [entry] = cache.entries()
    if corruption == "truncate":
        entry.write_text(entry.read_text()[: entry.stat().st_size // 2])
    elif corruption == "garbage":
        entry.write_bytes(b"\x00\xffnot json at all")
    elif corruption == "wrong_version":
        payload = json.loads(entry.read_text())
        payload["format"] = 999
        entry.write_text(json.dumps(payload))
    else:
        entry.write_text(json.dumps(
            {"format": 1, "key": base_key(),
             "result": {"no_such_field": 1}}
        ))
    assert cache.load(base_key()) is None
    assert cache.stats.errors == 1
    assert cache.stats.quarantined == 1
    assert not entry.exists(), "a bad entry must never be served twice"
    [quarantined] = cache.quarantined_entries()
    assert quarantined.name == entry.name, "evidence must be preserved"
    assert quarantined.is_relative_to(cache.quarantine_dir)


def test_repeat_corruption_quarantines_under_distinct_names(tmp_path):
    cache = DiskCache(tmp_path)
    for _ in range(3):
        cache.store(base_key(), simulated_result())
        [entry] = cache.entries()
        entry.write_bytes(b"\x00garbage")
        assert cache.load(base_key()) is None
    names = [path.name for path in cache.quarantined_entries()]
    assert names == [
        f"{base_key()}.json",
        f"{base_key()}.json.1",
        f"{base_key()}.json.2",
    ]
    assert cache.stats.quarantined == 3


def test_clear_preserves_quarantined_entries(tmp_path):
    cache = DiskCache(tmp_path)
    cache.store(base_key(), simulated_result())
    [entry] = cache.entries()
    entry.write_bytes(b"torn")
    assert cache.load(base_key()) is None
    cache.store(base_key(), simulated_result())
    assert cache.clear() == 1
    assert cache.entries() == []
    assert len(cache.quarantined_entries()) == 1


def test_open_sweeps_only_abandoned_temp_files(tmp_path):
    cache = DiskCache(tmp_path)
    cache.store(base_key(), simulated_result())
    shard = cache.entry_path(base_key()).parent
    stale = shard / ".deadbeef-stale.tmp"
    stale.write_text("half-written entry of a killed worker")
    ancient = time.time() - 2 * diskcache._TEMP_ORPHAN_AGE_SECONDS
    os.utime(stale, (ancient, ancient))
    fresh = shard / ".cafef00d-live.tmp"
    fresh.write_text("a concurrent worker's in-flight write")

    reopened = DiskCache(tmp_path)
    assert reopened.swept_temp_files == 1
    assert not stale.exists()
    assert fresh.exists(), "young temp files may be live writers"
    assert reopened.load(base_key()) is not None  # entries untouched


def test_sweep_age_is_tunable_via_env(tmp_path, monkeypatch):
    monkeypatch.delenv(diskcache.SWEEP_AGE_ENV, raising=False)
    default = diskcache._TEMP_ORPHAN_AGE_SECONDS
    assert diskcache.sweep_age_seconds() == default
    monkeypatch.setenv(diskcache.SWEEP_AGE_ENV, "60")
    assert diskcache.sweep_age_seconds() == 60.0
    # Nonsense and negative values fall back to the default rather than
    # making the sweeper eat live writers' temp files.
    monkeypatch.setenv(diskcache.SWEEP_AGE_ENV, "-5")
    assert diskcache.sweep_age_seconds() == default
    monkeypatch.setenv(diskcache.SWEEP_AGE_ENV, "soon")
    assert diskcache.sweep_age_seconds() == default

    # A short sweep age reclaims an orphan the default would spare.
    cache = DiskCache(tmp_path)
    cache.store(base_key(), simulated_result())
    shard = cache.entry_path(base_key()).parent
    orphan = shard / ".deadbeef-orphan.tmp"
    orphan.write_text("recently abandoned")
    recent = time.time() - 120
    os.utime(orphan, (recent, recent))
    assert DiskCache(tmp_path).swept_temp_files == 0, \
        "120s-old temp survives the default hour-long sweep age"
    monkeypatch.setenv(diskcache.SWEEP_AGE_ENV, "60")
    reopened = DiskCache(tmp_path)
    assert reopened.swept_temp_files == 1
    assert not orphan.exists()


def test_get_result_survives_corruption(monkeypatch):
    calls = []
    real = runner.simulate_kernel
    monkeypatch.setattr(
        runner, "simulate_kernel",
        lambda *a, **k: calls.append(1) or real(*a, **k),
    )
    seed_trace("WX", BASE_TRACE)
    first = get_result("WX", "3060-Sim", "ARC-SW-B-8")
    assert len(calls) == 1
    for entry in diskcache.active_cache().entries():
        entry.write_text("garbage")
    clear_caches()  # drop memory; disk is now corrupt
    seed_trace("WX", BASE_TRACE)
    again = get_result("WX", "3060-Sim", "ARC-SW-B-8")
    assert len(calls) == 2, "corruption must re-simulate, not crash"
    assert again == first


# --------------------------------------------------------------------- #
# Layered lookup and isolation (the clear_caches gap)
# --------------------------------------------------------------------- #


def test_memory_then_disk_then_simulate(monkeypatch):
    calls = []
    real = runner.simulate_kernel
    monkeypatch.setattr(
        runner, "simulate_kernel",
        lambda *a, **k: calls.append(1) or real(*a, **k),
    )
    seed_trace("WX", BASE_TRACE)
    first = get_result("WX", "3060-Sim", "baseline")
    second = get_result("WX", "3060-Sim", "baseline")
    assert second is first and len(calls) == 1  # memory hit
    clear_caches()
    seed_trace("WX", BASE_TRACE)
    third = get_result("WX", "3060-Sim", "baseline")
    assert len(calls) == 1, "warm disk cache must not re-simulate"
    assert third == first and third is not first  # disk hit


def test_no_cross_test_leakage_after_full_clear(monkeypatch):
    """``clear_caches(disk=True)`` wipes both layers: content registered
    later under the same workload key can never be served stale results."""
    trace_a = coalesced_trace(n_batches=64, num_params=4, seed=1, name="W")
    trace_b = coalesced_trace(n_batches=64, num_params=4, seed=2, name="W")
    seed_trace("W", trace_a)
    result_a = get_result("W", "3060-Sim", "baseline")
    assert diskcache.active_cache().entries()

    clear_caches(disk=True)
    assert diskcache.active_cache().entries() == []

    seed_trace("W", trace_b)
    result_b = get_result("W", "3060-Sim", "baseline")
    assert result_b != result_a, "stale result leaked across the clear"


def test_memory_only_clear_keeps_disk_warm():
    seed_trace("W", BASE_TRACE)
    get_result("W", "3060-Sim", "baseline")
    n_entries = len(diskcache.active_cache().entries())
    clear_caches()
    assert len(diskcache.active_cache().entries()) == n_entries


def test_isolated_repoints_then_restores(tmp_path):
    """``diskcache.isolated`` gives the block private disk state and
    restores the previous cache object (stats included) -- it never
    clears the shared cache in place."""
    outer = diskcache.active_cache()
    outer.store(base_key(), simulated_result())
    outer_entries = outer.entries()
    with diskcache.isolated(tmp_path / "inner") as inner:
        assert diskcache.active_cache() is inner
        assert inner.root == tmp_path / "inner"
        assert inner.entries() == []  # private, initially empty
        inner.store(base_key(), simulated_result())
    assert diskcache.active_cache() is outer
    assert outer.entries() == outer_entries, "shared cache was touched"


def test_isolated_restores_disabled_override(tmp_path):
    """A ``configure(enabled=...)`` issued inside the block cannot leak
    out of it."""
    with diskcache.isolated(tmp_path / "inner"):
        diskcache.configure(enabled=False)
        assert diskcache.active_cache() is None
    assert diskcache.active_cache() is not None


def test_disabled_cache_simulates_every_time(monkeypatch):
    diskcache.configure(enabled=False)
    assert diskcache.active_cache() is None
    calls = []
    real = runner.simulate_kernel
    monkeypatch.setattr(
        runner, "simulate_kernel",
        lambda *a, **k: calls.append(1) or real(*a, **k),
    )
    seed_trace("WX", BASE_TRACE)
    get_result("WX", "3060-Sim", "baseline")
    clear_caches()
    seed_trace("WX", BASE_TRACE)
    get_result("WX", "3060-Sim", "baseline")
    assert len(calls) == 2
