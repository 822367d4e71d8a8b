"""Exact pins for what the renderer workloads capture and train.

``tests/data/capture_pins.json`` holds, for a tiny Gaussian, sphere and
cubemap workload, the trace fingerprint and batch count of four
captures -- no values, with values, after one warmup step -- and the
per-step losses and start/end PSNR of a 3-step ``train()``.  Every
field must match exactly: a capture path that skips the loss and the
backward must produce the very trace the gradient kernel would have.

Re-record (only for a deliberate, explained change of the traces)::

    PYTHONPATH=src python -m tests.test_capture_pins
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.workloads import CubemapWorkload, GaussianWorkload, SphereWorkload

FIXTURE = Path(__file__).parent / "data" / "capture_pins.json"

#: Exact constructions the fixture was recorded against.
WORKLOADS = {
    "gaussian": lambda: GaussianWorkload(
        key="t3d", dataset="d", description="x", n_gaussians=120,
        base_scale=0.15, extent=1.0, width=64, height=64, seed=1,
        trace_views=2,
    ),
    "sphere": lambda: SphereWorkload(
        key="tps", dataset="d", description="x", n_spheres=80,
        base_radius=0.16, extent=1.0, width=64, height=64, seed=2,
        trace_views=2,
    ),
    "cubemap": lambda: CubemapWorkload(
        key="tnv", dataset="d", description="x", cubemap_resolution=8,
        width=64, height=64, seed=3, trace_views=2,
    ),
}

#: Case name -> keyword arguments of ``capture_trace``.
CAPTURES = {
    "plain": {},
    "with_values": {"with_values": True},
    "warmup": {"warmup_steps": 1},
}

TRAIN_STEPS = 3


def pin(name: str) -> dict:
    """The deterministic projection of one workload's captures and training."""
    out = {}
    for case, kwargs in CAPTURES.items():
        trace = WORKLOADS[name]().capture_trace(**kwargs)
        out[case] = {"fingerprint": trace.fingerprint,
                     "n_batches": trace.n_batches}
    report = WORKLOADS[name]().train(TRAIN_STEPS)
    out["train"] = {"losses": report.losses,
                    "psnr_start": report.psnr_start,
                    "psnr_end": report.psnr_end}
    return json.loads(json.dumps(out))


def record(path: Path = FIXTURE) -> None:
    """(Re-)record the fixture from the current code."""
    pins = {name: pin(name) for name in WORKLOADS}
    path.write_text(json.dumps({"format": 1, "workloads": pins},
                               indent=1, sort_keys=True) + "\n")


def load_fixture() -> dict:
    recorded = json.loads(FIXTURE.read_text())
    assert recorded["format"] == 1
    return recorded["workloads"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_captures_and_training_match_recorded_pins(name):
    assert pin(name) == load_fixture()[name]


def test_fixture_holds_every_workload_and_case():
    recorded = load_fixture()
    assert set(recorded) == set(WORKLOADS)
    for pins in recorded.values():
        assert set(pins) == set(CAPTURES) | {"train"}
        assert len(pins["train"]["losses"]) == TRAIN_STEPS
        # Values enter the fingerprint; warmup moves the model.
        assert pins["with_values"]["fingerprint"] != pins["plain"]["fingerprint"]
        assert pins["with_values"]["n_batches"] == pins["plain"]["n_batches"]


if __name__ == "__main__":
    record()
