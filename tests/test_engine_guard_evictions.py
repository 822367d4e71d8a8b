"""Eviction guard: buffering strategies on traces that overflow their buffers.

The guard grid's traces touch at most 512 slots, while every LAB, PHI
and DAB buffer holds at least 1,489, so no cell of that grid ever
evicts, and a DAB with a 64-batch epoch barely drains.  This grid makes
the LRU and flush paths do real work: tens of thousands of slots, a
2%-capacity LAB that evicts on most batches, and a DAB that drains its
buffers every 8 batches per SM.

``tests/data/engine_guard_evictions.json`` pins, per cell, the
``SimResult.to_dict()`` output and the telemetry digest (see
:func:`tests.test_engine_guard.telemetry_digest`).  When engine or
strategy *behaviour* changes deliberately, re-record it with::

    PYTHONPATH=src python -m tests.test_engine_guard_evictions --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core import DAB, LAB, PHI, LABIdeal
from repro.gpu import SIMULATED_GPUS, Telemetry, simulate_kernel
from repro.trace import mixed_locality_trace, scattered_trace
from tests.test_engine_guard import telemetry_digest

FIXTURE = Path(__file__).parent / "data" / "engine_guard_evictions.json"

#: Exact trace constructions the fixture was recorded against.
TRACES = {
    "scattered": lambda: scattered_trace(
        n_batches=400, n_slots=40000, num_params=9, seed=3),
    "mixed": lambda: mixed_locality_trace(
        n_batches=400, n_slots=20000, num_params=9, seed=4),
}

#: Exact strategy constructions, by fixture key.
STRATEGIES = {
    "LAB-0.02": lambda: LAB(capacity_fraction=0.02),
    "LAB": LAB,
    "LAB-ideal": LABIdeal,
    "PHI": PHI,
    "DAB-8": lambda: DAB(epoch_batches=8),
}


def iter_grid():
    """Yield ``(key, trace, gpu, strategy_factory)`` for every cell."""
    for tname, factory in TRACES.items():
        trace = factory()
        for gpu in SIMULATED_GPUS.values():
            for sname, make in STRATEGIES.items():
                yield f"{tname}|{gpu.name}|{sname}", trace, gpu, make


def run_cell(trace, gpu, make, with_telemetry):
    """``(to_dict() round-tripped through JSON, digest or None)``."""
    telemetry = Telemetry() if with_telemetry else None
    result = simulate_kernel(trace, gpu, make(), telemetry=telemetry)
    produced = json.loads(json.dumps(result.to_dict()))
    return produced, telemetry_digest(telemetry) if with_telemetry else None


def record(path: Path = FIXTURE) -> int:
    """(Re-)record the fixture; returns the cell count."""
    results, digests = {}, {}
    for key, trace, gpu, make in iter_grid():
        results[key], digests[key] = run_cell(trace, gpu, make, True)
    path.write_text(json.dumps(
        {"format": 1, "results": results, "telemetry": digests},
        indent=1, sort_keys=True,
    ) + "\n")
    return len(results)


@pytest.mark.parametrize(
    "with_telemetry", [False, True], ids=["telemetry-off", "telemetry-on"]
)
def test_eviction_grid_matches_recorded_fixture(with_telemetry):
    recorded = json.loads(FIXTURE.read_text())
    assert recorded["format"] == 1
    seen = set()
    for key, trace, gpu, make in iter_grid():
        seen.add(key)
        produced, digest = run_cell(trace, gpu, make, with_telemetry)
        assert produced == recorded["results"][key], key
        if with_telemetry:
            assert digest == recorded["telemetry"][key], key
    assert seen == set(recorded["results"]) == set(recorded["telemetry"])


@pytest.mark.parametrize("sname", ["LAB-0.02", "DAB-8"])
def test_eviction_grid_evicts(sname):
    """The grid must keep exercising mid-kernel evictions and epoch
    drains, not only the kernel-exit flush."""
    strategy = STRATEGIES[sname]()
    touch = strategy.touch
    sent = []

    def counting(batch, engine):
        requests = touch(batch, engine)
        sent.append(len(requests or ()))
        return requests

    strategy.touch = counting
    simulate_kernel(TRACES["scattered"](), SIMULATED_GPUS["3060-Sim"], strategy)
    assert sum(sent) > 1000, sname


if __name__ == "__main__":
    if "--record" in sys.argv:
        print(f"recorded {record()} cells -> {FIXTURE}")
    else:
        print(__doc__)
