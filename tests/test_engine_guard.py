"""Engine regression guard: every cell matches the recorded seed fixture.

``tests/data/engine_guard.json`` was recorded from the engine *before*
telemetry instrumentation landed.  These tests re-simulate the full
fixture matrix -- four synthetic traces x both GPUs x every report
strategy -- and require bit-identical ``SimResult.to_dict()`` output,
both with ``telemetry=None`` (the hot path must be untouched) and with a
live :class:`~repro.gpu.telemetry.Telemetry` collector attached (probes
must observe, never perturb).

``tests/data/engine_guard_workloads.json`` widens the net from synthetic
traces to *captured workload* traces -- the histogram workload and a
small 3DGS render capture -- across **every** registered strategy
(all ARC-SW thresholds included, not just the report set).  This is the
bit-identity safety net ROADMAP item 1's engine rewrite works against:
any fast path must reproduce these cells byte for byte.

``tests/data/engine_guard_telemetry.json`` pins what a live
:class:`~repro.gpu.telemetry.Telemetry` collector records on the same
grid: one digest per cell over its sorted spans and LSU, ROP,
interconnect and reduction-unit intervals.  ``SimResult`` alone would
not notice an engine path that stops emitting a batch's phase spans.
When engine *behaviour* changes deliberately, re-record both with::

    PYTHONPATH=src python tests/test_engine_guard.py --record
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.runner import STRATEGY_FACTORIES, make_strategy
from repro.gpu import SIMULATED_GPUS, Telemetry, simulate_kernel
from repro.trace import (
    coalesced_trace,
    hotspot_trace,
    mixed_locality_trace,
    scattered_trace,
)

FIXTURE = Path(__file__).parent / "data" / "engine_guard.json"
WORKLOAD_FIXTURE = (
    Path(__file__).parent / "data" / "engine_guard_workloads.json"
)
TELEMETRY_FIXTURE = (
    Path(__file__).parent / "data" / "engine_guard_telemetry.json"
)

#: Exact trace constructions the fixture was recorded against.
TRACES = {
    "coalesced": lambda: coalesced_trace(
        n_batches=160, n_slots=64, num_params=6, seed=11),
    "mixed": lambda: mixed_locality_trace(
        n_batches=160, n_slots=96, num_params=3, seed=12),
    "scattered": lambda: scattered_trace(
        n_batches=120, n_slots=512, num_params=1, seed=13),
    "hotspot": lambda: hotspot_trace(n_batches=96, num_params=8, seed=14),
}

STRATEGIES = ["baseline", "ARC-HW", "ARC-SW-B-8", "ARC-SW-S-8",
              "CCCL", "LAB", "LAB-ideal", "PHI"]


def load_fixture() -> dict:
    recorded = json.loads(FIXTURE.read_text())
    assert recorded["format"] == 1
    return recorded["results"]


# --------------------------------------------------------------------- #
# Strategy x workload grid (captured traces, every registered strategy)
# --------------------------------------------------------------------- #

#: Exact workload captures the grid fixture was recorded against.  The
#: histogram trace is divergent (``bfly_eligible=False``), so SW-B
#: strategies are skipped there exactly as ``strategy_applicable`` does.
WORKLOAD_TRACES = {
    "histogram": lambda: _histogram_workload().capture_trace(),
    "render-gaussian": lambda: _gaussian_workload().capture_trace(),
}

#: The grid runs one GPU but *every* factory-registered strategy --
#: including the ARC-SW threshold sweep the report set leaves out.
GRID_GPU = "3060-Sim"
GRID_STRATEGIES = sorted(STRATEGY_FACTORIES)


def _histogram_workload():
    from repro.workloads import HistogramWorkload

    return HistogramWorkload(n_elements=4096, n_bins=64, smoothness=4,
                             seed=7)


def _gaussian_workload():
    from repro.workloads import GaussianWorkload

    return GaussianWorkload(
        key="guard-3D", dataset="guard", description="guard render capture",
        n_gaussians=64, base_scale=0.15, extent=1.0, width=64, height=64,
        seed=21,
    )


def iter_workload_grid():
    """Yield ``(key, trace, gpu, strategy_name)`` for every grid cell."""
    gpu = SIMULATED_GPUS[GRID_GPU]
    for tname, factory in sorted(WORKLOAD_TRACES.items()):
        trace = factory()
        for sname in GRID_STRATEGIES:
            if "SW-B" in sname and not trace.bfly_eligible:
                continue
            yield f"{tname}|{gpu.name}|{sname}", trace, gpu, sname


def telemetry_digest(telemetry: Telemetry) -> str:
    """SHA-256 over every record kind, each sorted.

    Sorting makes the digest independent of the order in which the
    engine appended records; it still changes when any record is
    added, dropped or altered.
    """
    records = {
        "spans": sorted(telemetry.spans),
        "lsu": sorted(telemetry.lsu_intervals),
        "rop": sorted(telemetry.rop_intervals),
        "ic": sorted(telemetry.ic_intervals),
        "ru": sorted(telemetry.ru_intervals),
    }
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def record_workload_fixture(path: Path = WORKLOAD_FIXTURE,
                            telemetry_path: Path = TELEMETRY_FIXTURE) -> int:
    """(Re-)record the workload-grid fixture and its telemetry digests.

    Returns the cell count.
    """
    results, digests = {}, {}
    for key, trace, gpu, sname in iter_workload_grid():
        telemetry = Telemetry()
        result = simulate_kernel(
            trace, gpu, make_strategy(sname), telemetry=telemetry
        )
        results[key] = json.loads(json.dumps(result.to_dict()))
        digests[key] = telemetry_digest(telemetry)
    for target, payload in ((path, results), (telemetry_path, digests)):
        target.write_text(json.dumps(
            {"format": 1, "results": payload}, indent=1, sort_keys=True
        ) + "\n")
    return len(results)


def load_workload_fixture(path: Path = WORKLOAD_FIXTURE) -> dict:
    recorded = json.loads(path.read_text())
    assert recorded["format"] == 1
    return recorded["results"]


@pytest.mark.parametrize(
    "with_telemetry", [False, True], ids=["telemetry-off", "telemetry-on"]
)
def test_workload_grid_matches_recorded_fixture(with_telemetry):
    recorded = load_workload_fixture()
    digests = load_workload_fixture(TELEMETRY_FIXTURE)
    seen = set()
    for key, trace, gpu, sname in iter_workload_grid():
        seen.add(key)
        telemetry = Telemetry() if with_telemetry else None
        result = simulate_kernel(
            trace, gpu, make_strategy(sname), telemetry=telemetry
        )
        produced = json.loads(json.dumps(result.to_dict()))
        assert produced == recorded[key], key
        if with_telemetry:
            assert telemetry_digest(telemetry) == digests[key], key
    assert seen == set(recorded) == set(digests), "workload grid drifted"


def test_workload_grid_covers_every_registered_strategy():
    """The grid must widen, never silently narrow, with the registry."""
    recorded = load_workload_fixture()
    strategies_in_fixture = {key.split("|")[2] for key in recorded}
    assert strategies_in_fixture == set(STRATEGY_FACTORIES)
    # The render trace is butterfly-eligible, so SW-B rows exist there.
    assert any(key.startswith("render-gaussian|") and "SW-B" in key
               for key in recorded)
    # ...and are correctly absent from the divergent histogram trace.
    assert not any(key.startswith("histogram|") and "SW-B" in key
                   for key in recorded)


@pytest.mark.parametrize(
    "with_telemetry", [False, True], ids=["telemetry-off", "telemetry-on"]
)
def test_engine_matches_recorded_fixture(with_telemetry):
    recorded = load_fixture()
    seen = set()
    for tname, factory in TRACES.items():
        trace = factory()
        for gpu in SIMULATED_GPUS.values():
            for sname in STRATEGIES:
                if "SW-B" in sname and not trace.bfly_eligible:
                    continue
                key = f"{tname}|{gpu.name}|{sname}"
                seen.add(key)
                telemetry = Telemetry() if with_telemetry else None
                result = simulate_kernel(
                    trace, gpu, make_strategy(sname), telemetry=telemetry
                )
                # Round-trip through JSON exactly as the fixture was
                # written, so "bit-identical" means identical bytes on
                # disk, not merely approximate floats.
                produced = json.loads(json.dumps(result.to_dict()))
                assert produced == recorded[key], key
    assert seen == set(recorded), "fixture matrix drifted"


if __name__ == "__main__":
    import sys

    if "--record" in sys.argv:
        count = record_workload_fixture()
        print(f"recorded {count} cells -> {WORKLOAD_FIXTURE}, "
              f"{TELEMETRY_FIXTURE}")
    else:
        print(__doc__)
