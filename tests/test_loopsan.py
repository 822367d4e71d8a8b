"""Loop-thread half of the REPRO_SANITIZE runtime sanitizer
(:mod:`repro.obs.sanitize`) and its check against the declared
``LOOP_IO_FRAMES`` table.

Layered like the I/O half (``tests/test_iosan.py``): shim-mechanics
units first (install / uninstall in any order, loop-thread gating, frame
attribution, one record per hit, callback overrun tracking), then the
two chaos proofs:

* a **clean** REPRO_SANITIZE=1 service run observes no loop-thread
  blocking frame outside the declared table;
* an **injected** ``loop-block`` fault is caught by both layers -- the
  runtime shim attributes the stall to the fault hook's frame, and the
  table declares that exact qualified name as the deliberate stall.
"""

from __future__ import annotations

import asyncio
import builtins
import io
import os
import time

import pytest

from repro import obslog
from repro.experiments import faults
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.obs import sanitize
from repro.obslog import read_events
from repro.service import Broker, SimRequest
from tests.test_service import (
    fake_registry,  # noqa: F401  (fixture re-export)
    fast_policy,
    obslog_sink,  # noqa: F401
    ordered_burst,
    serial_truth,
)


@pytest.fixture(autouse=True)
def shim_hygiene():
    """Every test leaves the process un-shimmed and fault-free."""
    faults.configure(None)
    yield
    sanitize.uninstall()
    faults.configure(None)


def arm(monkeypatch, tmp_path, slow_ms=None):
    log_path = tmp_path / "sanitize.jsonl"
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
    monkeypatch.setenv(sanitize.SANITIZE_LOG_ENV, str(log_path))
    if slow_ms is not None:
        monkeypatch.setattr(sanitize, "SLOW_MS", float(slow_ms))
    assert sanitize.maybe_install(), "shim must arm when both env vars set"
    return log_path


# --------------------------------------------------------------------- #
# Shim mechanics
# --------------------------------------------------------------------- #


def test_shared_gate_and_spawn_carry(monkeypatch, tmp_path):
    """The sanitizer has two knobs: the ``REPRO_SANITIZE`` gate it
    shares with the engine's heap-tie assert, and one log path; it arms
    only with both.  Spawned workers inherit both through the
    environment (the chaos suite's ``>= 2 pids`` check)."""
    assert sanitize.SANITIZE_ENV == "REPRO_SANITIZE"
    assert sanitize.SANITIZE_LOG_ENV == "REPRO_SANITIZE_LOG"
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
    monkeypatch.delenv(sanitize.SANITIZE_LOG_ENV, raising=False)
    assert not sanitize.enabled()
    monkeypatch.setenv(sanitize.SANITIZE_LOG_ENV,
                       str(tmp_path / "sanitize.jsonl"))
    assert sanitize.enabled()


def test_disabled_without_env(monkeypatch):
    monkeypatch.delenv(sanitize.SANITIZE_ENV, raising=False)
    monkeypatch.delenv(sanitize.SANITIZE_LOG_ENV, raising=False)
    assert not sanitize.enabled()
    assert not sanitize.maybe_install()
    assert not sanitize.installed()


def test_install_is_idempotent_and_uninstall_restores(monkeypatch,
                                                      tmp_path):
    pristine_open = builtins.open
    pristine_sleep = time.sleep
    arm(monkeypatch, tmp_path)
    shimmed_open = builtins.open
    assert shimmed_open is not pristine_open
    assert sanitize.maybe_install()  # second install is a no-op
    assert builtins.open is shimmed_open
    sanitize.uninstall()
    assert not sanitize.installed()
    assert builtins.open is pristine_open
    assert time.sleep is pristine_sleep


def _bindings() -> tuple:
    return (builtins.open, io.open, os.open, os.replace, os.rename,
            time.sleep, asyncio.Handle._run)


_ORDERS = [
    ("install", "arm", "uninstall"),
    ("arm", "install", "uninstall"),
    ("install", "arm", "uninstall", "install", "arm", "uninstall"),
    ("arm", "install", "uninstall", "arm", "install", "uninstall"),
    ("install", "install", "arm", "arm", "uninstall", "uninstall"),
    ("uninstall", "arm", "uninstall", "install", "uninstall"),
]


@pytest.mark.parametrize("steps", _ORDERS, ids="-".join)
def test_uninstall_restores_prior_bindings_in_any_order(monkeypatch,
                                                        tmp_path, steps):
    """Whatever the order of install, arm_loop and uninstall (twice
    over), every wrapped primitive and ``asyncio.Handle._run`` ends up
    the object bound before -- including a binding that was itself
    someone else's wrapper, not the builtin."""
    real_rename = os.rename

    def foreign_rename(src, dst, **kwargs):
        return real_rename(src, dst, **kwargs)

    monkeypatch.setattr(os, "rename", foreign_rename)
    before = _bindings()
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
    monkeypatch.setenv(sanitize.SANITIZE_LOG_ENV,
                       str(tmp_path / "sanitize.jsonl"))
    loop = asyncio.new_event_loop()
    try:
        for step in steps:
            if step == "install":
                assert sanitize.maybe_install()
                assert os.rename is not foreign_rename
            elif step == "arm":
                sanitize.arm_loop(loop)
                assert asyncio.Handle._run is not before[-1]
            else:
                sanitize.uninstall()
                assert not sanitize.installed()
                assert _bindings() == before
    finally:
        loop.close()
    assert _bindings() == before


def test_one_record_per_loop_thread_write(monkeypatch, tmp_path):
    """One ``obslog.emit`` on the loop thread is one ``os.open`` hit and
    yields exactly one sanitizer record, carrying both the I/O fields
    (the ``O_APPEND`` flags) and the loop fields (the attributed frame)."""
    log_path = arm(monkeypatch, tmp_path)
    obs_path = tmp_path / "obs.jsonl"
    monkeypatch.setenv(obslog.OBSLOG_ENV, str(obs_path))

    async def scenario():
        obslog.emit("sanitize.unit", note="one write, one record")

    asyncio.run(scenario())
    sanitize.uninstall()
    [record] = read_events(log_path)
    assert record["op"] == "os.open"
    assert record["path"] == str(obs_path)
    assert record["flags"] & os.O_APPEND
    assert record["frame"] == "repro.obslog.emit"
    assert not record["stalled"]
    assert sanitize.observed_protocols([record], None, str(obs_path)) \
        == {("obslog", sanitize.PROTOCOL_APPEND)}


def test_attributes_loop_thread_primitive_to_repro_frame(monkeypatch,
                                                         tmp_path):
    log_path = arm(monkeypatch, tmp_path)
    monkeypatch.setenv(obslog.OBSLOG_ENV, str(tmp_path / "obs.jsonl"))

    async def scenario():
        obslog.emit("sanitize.unit", note="on the loop")

    asyncio.run(scenario())
    sanitize.uninstall()
    events = read_events(log_path)
    assert events, "loop-thread os.open must be recorded"
    assert sanitize.observed_frames(events) == {"repro.obslog.emit"}
    assert all(event["op"] == "os.open" for event in events)
    assert all(not event["stalled"] for event in events)


def test_off_loop_blocking_is_not_recorded(monkeypatch, tmp_path):
    """Worker threads and plain sync code may block freely: off the loop
    an I/O hit keeps its I/O fields only, and a sleep is not recorded."""
    log_path = arm(monkeypatch, tmp_path)
    monkeypatch.setenv(obslog.OBSLOG_ENV, str(tmp_path / "obs.jsonl"))
    obslog.emit("sanitize.offloop", note="no loop running here")
    time.sleep(0.0)
    sanitize.uninstall()
    events = read_events(log_path)
    assert [event["op"] for event in events] == ["os.open"]
    assert sanitize.observed_frames(events) == set()
    assert "duration_ms" not in events[0]


def test_callback_overrun_records_without_frame(monkeypatch, tmp_path):
    """A callback that holds the loop past the threshold is recorded by
    the Handle._run tracker even when no shimmed primitive caused it --
    and frame-less callback records fold out of the frame sets."""
    log_path = arm(monkeypatch, tmp_path, slow_ms=10)

    async def scenario():
        sanitize.arm_loop(asyncio.get_running_loop())
        done = asyncio.Event()

        def busy():
            end = time.perf_counter() + 0.05
            while time.perf_counter() < end:
                pass
            done.set()

        asyncio.get_running_loop().call_soon(busy)
        await done.wait()

    asyncio.run(scenario())
    sanitize.uninstall()
    events = read_events(log_path)
    overruns = [e for e in events if e["op"] == "callback"]
    assert overruns, "10ms threshold must catch a 50ms busy callback"
    assert any("busy" in e["callback"] for e in overruns)
    assert all(e["stalled"] for e in overruns)
    assert sanitize.observed_frames(overruns) == set()


# --------------------------------------------------------------------- #
# Chaos check against the declared loop-thread I/O table
# --------------------------------------------------------------------- #


def test_clean_service_run_blocks_only_inside_static_model(
        fake_registry, tmp_path, monkeypatch, obslog_sink):  # noqa: F811
    """Under REPRO_SANITIZE=1 a clean coalescing service run performs
    no loop-thread blocking call outside ``sanitize.LOOP_IO_FRAMES``:
    every observed frame is an audited site."""
    truth = serial_truth(tmp_path, ["S1", "S2"], ["baseline"])
    log_path = arm(monkeypatch, tmp_path)
    requests = [
        SimRequest(workload=workload, gpu="3060-Sim", strategy="baseline")
        for workload in ("S1", "S2", "S1", "S2", "S1")
    ]
    broker = Broker(jobs=2, paused=True, policy=fast_policy())
    responses = asyncio.run(ordered_burst(broker, requests))
    sanitize.uninstall()
    assert all(not isinstance(r, BaseException) for r in responses)
    assert responses[0].result.to_dict() \
        == truth[("S1", "3060-Sim", "baseline")]

    events = read_events(log_path)
    assert events, "armed shim must observe the run's loop-thread I/O"
    observed = sanitize.observed_frames(events)
    assert observed, "obslog writes happen on the loop thread"
    unexplained = observed - sanitize.LOOP_IO_FRAMES
    assert not unexplained, (
        "loop-thread blocking frames outside LOOP_IO_FRAMES: "
        f"{sorted(unexplained)}"
    )


def test_injected_loop_block_fault_is_caught_by_both_layers(
        fake_registry, tmp_path, monkeypatch, obslog_sink):  # noqa: F811
    """A planned ``loop-block`` fault stalls the loop inside the
    admission path.  The runtime shim must attribute the stall to the
    fault hook's frame, and the declared table must name that exact
    frame as the deliberate stall it is."""
    serial_truth(tmp_path, ["S1"], ["baseline"])
    log_path = arm(monkeypatch, tmp_path, slow_ms=50)
    faults.configure(FaultPlan((
        FaultSpec(cell="S1|3060-Sim|baseline", kind="loop-block",
                  times=1, seconds=0.25),
    )))
    broker = Broker(jobs=1, paused=True, policy=fast_policy())
    responses = asyncio.run(ordered_burst(broker, [
        SimRequest(workload="S1", gpu="3060-Sim", strategy="baseline"),
    ]))
    sanitize.uninstall()
    # The fault stalls admission; it must not corrupt the request.
    assert all(not isinstance(r, BaseException) for r in responses)

    events = read_events(log_path)
    stalled = sanitize.stalled_frames(events)
    hook = "repro.experiments.faults.on_admission"
    assert hook in stalled, (
        f"runtime layer missed the injected stall: stalled={sorted(stalled)}"
    )
    sleeps = [e for e in events
              if e["op"] == "sleep" and e.get("frame") == hook]
    assert sleeps and all(e["duration_ms"] >= 200 for e in sleeps)
    assert stalled <= sanitize.LOOP_IO_FRAMES, (
        "undeclared stalls: "
        f"{sorted(stalled - sanitize.LOOP_IO_FRAMES)}"
    )
    assert hook in sanitize.LOOP_IO_FRAMES, (
        "the fault hook's deliberate stall must be a declared site"
    )


def test_loop_block_fault_spec_round_trips():
    """The new fault kind is part of the planned-fault vocabulary."""
    assert "loop-block" in faults.FAULT_KINDS
    spec = FaultSpec(cell="S1|3060-Sim|baseline", kind="loop-block",
                     times=2, seconds=0.1)
    plan = FaultPlan((spec,))
    assert plan.find("S1|3060-Sim|baseline", "loop-block", 1) is spec
    assert plan.find("S1|3060-Sim|baseline", "loop-block", 2) is spec
    assert plan.find("S1|3060-Sim|baseline", "loop-block", 3) is None
