"""Exact pins for the small benchmark-scenario cells.

``tests/data/cell_pins.json`` holds the deterministic projection of 45
cells in four scenarios (``engine_smoke``, ``table2_sweep_small``,
``cache_warm_vs_cold``, ``telemetry_on_off``), keyed by scenario and
cell id ``trace|gpu|strategy[|variant]``.  Each cell is re-simulated
twice with fresh strategy instances.  Every field must match exactly:
simulated cycles, ROP and lane op counts, the trace fingerprint, the
:func:`~repro.bench.metrics.sim_digest` of the full result, the
agreement of the two runs (``repeat_stable``) and, for telemetry-on
cells, the simulated cycles spent in each sub-core phase.

The ``cold``/``warm`` and ``off``/``on`` variants are the same
simulation; the disk cache and telemetry machinery they once exercised
are pinned by ``test_diskcache`` and the telemetry-on engine guard runs.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.bench.metrics import sim_digest
from repro.experiments.runner import make_strategy
from repro.gpu import SIMULATED_GPUS, Telemetry, simulate_kernel
from repro.gpu.telemetry import PHASES
from repro.trace import coalesced_trace, mixed_locality_trace, scattered_trace

FIXTURE = Path(__file__).parent / "data" / "cell_pins.json"

GPU = "3060-Sim"


def _gaussian_trace():
    from repro.workloads import GaussianWorkload

    return GaussianWorkload(
        key="bench-3D", dataset="bench", description="small 3DGS fit",
        n_gaussians=80, base_scale=0.15, extent=1.0, width=64, height=64,
        seed=1,
    ).capture_trace()


def _sphere_trace():
    from repro.workloads import SphereWorkload

    return SphereWorkload(
        key="bench-PS", dataset="bench", description="small Pulsar fit",
        n_spheres=60, base_radius=0.16, width=64, height=64, seed=2,
    ).capture_trace()


def _histogram_trace():
    from repro.workloads import HistogramWorkload

    return HistogramWorkload(
        n_elements=16384, n_bins=64, smoothness=4, seed=7,
    ).capture_trace()


#: Exact seeded constructions the fixture was recorded against.  The
#: trace's own name is cosmetic (not part of its fingerprint) but kept.
TRACES = {
    "coalesced": lambda: coalesced_trace(
        n_batches=600, n_slots=256, num_params=8, seed=3,
        name="bench-coalesced"),
    "mixed": lambda: mixed_locality_trace(
        n_batches=400, n_slots=512, num_params=3, seed=4,
        name="bench-mixed"),
    "scattered": lambda: scattered_trace(
        n_batches=300, n_slots=2048, num_params=1, seed=5,
        name="bench-scattered"),
    "gaussian-small": _gaussian_trace,
    "sphere-small": _sphere_trace,
    "histogram": _histogram_trace,
}

#: scenario -> (traces, strategies, variants).  ``None`` is the
#: variant-less cell id; ``"on"`` cells run with a telemetry collector.
SCENARIOS = {
    "engine_smoke": (
        ("coalesced", "mixed", "scattered"),
        ("baseline", "ARC-HW", "ARC-SW-S-8", "CCCL"),
        (None,),
    ),
    "table2_sweep_small": (
        ("gaussian-small", "sphere-small", "histogram"),
        ("baseline", "ARC-HW", "ARC-SW-B-8", "ARC-SW-S-8", "CCCL", "LAB",
         "PHI"),
        (None,),
    ),
    "cache_warm_vs_cold": (
        ("coalesced",),
        ("baseline", "ARC-HW", "CCCL"),
        ("cold", "warm"),
    ),
    "telemetry_on_off": (
        ("coalesced", "mixed"),
        ("baseline", "LAB"),
        ("off", "on"),
    ),
}


@functools.cache
def trace(name: str):
    return TRACES[name]()


def iter_cells(scenario: str):
    """Yield ``(cell_id, trace_name, strategy, variant)`` per cell.

    SW-B strategies skip divergent traces, as the figure runner does.
    """
    traces, strategies, variants = SCENARIOS[scenario]
    for tname in traces:
        for sname in strategies:
            if "SW-B" in sname and not trace(tname).bfly_eligible:
                continue
            for variant in variants:
                parts = [tname, GPU, sname]
                if variant is not None:
                    parts.append(variant)
                yield "|".join(parts), tname, sname, variant


def _run(tname: str, sname: str, with_telemetry: bool):
    telemetry = Telemetry() if with_telemetry else None
    result = simulate_kernel(trace(tname), SIMULATED_GPUS[GPU],
                             make_strategy(sname), telemetry=telemetry)
    phases = None
    if telemetry is not None:
        phases = dict.fromkeys(PHASES, 0.0)
        for _subcore, _warp, _batch, phase, start, end in telemetry.spans:
            phases[phase] += end - start
    return result, phases


def pin(tname: str, sname: str, with_telemetry: bool) -> dict:
    """The deterministic projection of one cell, from two fresh runs."""
    first, phases = _run(tname, sname, with_telemetry)
    second, _ = _run(tname, sname, with_telemetry)
    return json.loads(json.dumps({
        "sim_cycles": first.total_cycles,
        "rop_ops": first.rop_ops,
        "lane_ops": first.lane_ops,
        "trace_fingerprint": trace(tname).fingerprint,
        "sim_digest": sim_digest(first),
        "repeat_stable": sim_digest(second) == sim_digest(first),
        "phase_cycles": phases,
    }))


def load_fixture() -> dict:
    recorded = json.loads(FIXTURE.read_text())
    assert recorded["format"] == 1
    return recorded["cells"]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_cells_match_recorded_pins(scenario):
    recorded = load_fixture()[scenario]
    seen = set()
    for cell_id, tname, sname, variant in iter_cells(scenario):
        seen.add(cell_id)
        assert pin(tname, sname, variant == "on") == recorded[cell_id], \
            cell_id
    assert seen == set(recorded), "scenario cell matrix drifted"


def test_fixture_holds_every_scenario():
    recorded = load_fixture()
    assert set(recorded) == set(SCENARIOS)
    assert sum(len(cells) for cells in recorded.values()) == 45
    # The divergent histogram trace has no SW-B cell.
    assert "histogram|3060-Sim|ARC-SW-B-8" not in \
        recorded["table2_sweep_small"]
    assert "gaussian-small|3060-Sim|ARC-SW-B-8" in \
        recorded["table2_sweep_small"]
