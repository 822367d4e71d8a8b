"""Unit tests for the I/O half of the REPRO_SANITIZE runtime sanitizer
(:mod:`repro.obs.sanitize`).

The end-to-end check against the declared ``SHARED_WRITES`` table
lives in ``tests/test_chaos.py``; the loop-thread half is in
``tests/test_loopsan.py``.  These tests cover the shim's own contract
-- arming conditions, install/uninstall hygiene, what each traced
primitive records off the loop, and how a recorded stream folds back
into (resource class, protocol) observations.
"""

from __future__ import annotations

import builtins
import io
import os
import time

import pytest

from repro.obs import sanitize
from repro.obslog import read_events


@pytest.fixture(autouse=True)
def pristine_shim():
    """Every test starts and ends with the shim uninstalled."""
    sanitize.uninstall()
    yield
    sanitize.uninstall()


def arm(monkeypatch, tmp_path):
    log = tmp_path / "sanitize.jsonl"
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
    monkeypatch.setenv(sanitize.SANITIZE_LOG_ENV, str(log))
    return log


# --------------------------------------------------------------------- #
# Arming and install/uninstall hygiene
# --------------------------------------------------------------------- #


def test_enabled_requires_both_env_vars(monkeypatch, tmp_path):
    monkeypatch.delenv(sanitize.SANITIZE_ENV, raising=False)
    monkeypatch.delenv(sanitize.SANITIZE_LOG_ENV, raising=False)
    assert not sanitize.enabled()
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
    assert not sanitize.enabled(), "no log path, nowhere to record"
    monkeypatch.setenv(sanitize.SANITIZE_LOG_ENV,
                       str(tmp_path / "log.jsonl"))
    assert sanitize.enabled()
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "0")
    assert not sanitize.enabled(), "REPRO_SANITIZE=0 means off"


def test_maybe_install_noop_when_disabled(monkeypatch):
    monkeypatch.delenv(sanitize.SANITIZE_ENV, raising=False)
    monkeypatch.delenv(sanitize.SANITIZE_LOG_ENV, raising=False)
    before = builtins.open
    assert not sanitize.maybe_install()
    assert not sanitize.installed()
    assert builtins.open is before


def test_install_uninstall_roundtrip(monkeypatch, tmp_path):
    arm(monkeypatch, tmp_path)
    before = (builtins.open, io.open, os.open, os.replace, os.rename)
    assert sanitize.maybe_install()
    assert sanitize.installed()
    assert builtins.open is not before[0]
    assert io.open is not before[1]
    assert os.open is not before[2]
    # Idempotent: a second install does not double-wrap.
    traced = builtins.open
    assert sanitize.maybe_install()
    assert builtins.open is traced
    sanitize.uninstall()
    assert not sanitize.installed()
    assert (builtins.open, io.open, os.open, os.replace, os.rename) \
        == before


# --------------------------------------------------------------------- #
# What the traced primitives record
# --------------------------------------------------------------------- #


def test_traced_primitives_record_their_protocols(monkeypatch, tmp_path):
    log = arm(monkeypatch, tmp_path)
    target = tmp_path / "data.txt"
    moved = tmp_path / "data-final.txt"
    sanitize.maybe_install()
    try:
        with open(target, "w") as handle:
            handle.write("x")
        fd = os.open(
            target, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        os.close(fd)
        os.replace(target, moved)
        # pathlib I/O lands on the traced io.open too.
        moved.write_text("y")
        with open(moved) as handle:
            handle.read()
        time.sleep(0)  # off the loop thread: never recorded
    finally:
        sanitize.uninstall()

    events = read_events(log)
    by_op = {}
    for event in events:
        by_op.setdefault(event["op"], []).append(event)
    assert set(by_op) == {"open", "os.open", "replace"}
    modes = [e["mode"] for e in by_op["open"]]
    assert "w" in modes and "r" in modes
    assert any(
        e["path"] == str(moved) and "w" in e["mode"]
        for e in by_op["open"]
    ), "Path.write_text must be traced through io.open"
    [os_open] = by_op["os.open"]
    assert os_open["flags"] & os.O_APPEND
    [replace] = by_op["replace"]
    assert replace["path"] == str(moved)
    assert replace["src"] == str(target)
    assert all(e["pid"] == os.getpid() for e in events)
    # Off the loop thread a record carries I/O fields only.
    assert not any("frame" in e or "duration_ms" in e for e in events)


def test_recording_survives_unwritable_log(monkeypatch, tmp_path):
    monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
    monkeypatch.setenv(
        sanitize.SANITIZE_LOG_ENV,
        str(tmp_path / "no-such-dir" / "log.jsonl"),
    )
    sanitize.maybe_install()
    try:
        (tmp_path / "out.txt").write_text("x")  # must not raise
    finally:
        sanitize.uninstall()


# --------------------------------------------------------------------- #
# Folding a stream into (resource, protocol) observations
# --------------------------------------------------------------------- #


def test_classify_path_mirrors_static_pattern_table(tmp_path):
    root = tmp_path / "cache"
    obslog = str(tmp_path / "events.jsonl")

    def classify(path):
        return sanitize.classify_path(str(path), root, obslog)

    assert classify(root / "results" / "ab" / "abc123.json") \
        == "cache-results"
    assert classify(root / "quarantine" / "ab" / "abc123.json") \
        == "cache-quarantine"
    assert classify(root / "manifests" / "run.jsonl") == "manifest"
    assert classify(obslog) == "obslog"
    # Writer temp files are the private half of atomic-rename.
    assert classify(root / "results" / "ab" / ".abc123-x7.tmp") is None
    assert classify(tmp_path / "elsewhere.txt") is None
    assert classify(root) is None
    assert sanitize.classify_path(str(root / "results" / "x.json"),
                                  None, None) is None
    # One vocabulary: every class a path maps to has a declared writer.
    assert {classify(root / d / "x") for d in ("results", "quarantine",
                                               "manifests")} \
        | {classify(obslog)} \
        == {resource for resource, _ in sanitize.SHARED_WRITES}


def test_observed_protocols_folds_and_excludes_temps(tmp_path):
    root = tmp_path / "cache"
    entry = str(root / "results" / "ab" / "abc123.json")
    tmp = str(root / "results" / "ab" / ".abc123-x7.tmp")
    manifest = str(root / "manifests" / "run.jsonl")
    obslog = str(tmp_path / "events.jsonl")
    events = [
        # mkstemp + commit: only the replace is a shared-resource write.
        {"op": "os.open", "path": tmp,
         "flags": os.O_RDWR | os.O_CREAT | os.O_EXCL},
        {"op": "replace", "path": entry, "src": tmp},
        # O_APPEND journal and obslog writes.
        {"op": "os.open", "path": manifest,
         "flags": os.O_WRONLY | os.O_CREAT | os.O_APPEND},
        {"op": "os.open", "path": obslog,
         "flags": os.O_WRONLY | os.O_CREAT | os.O_APPEND},
        # Reads carry no write protocol.
        {"op": "open", "path": entry, "mode": "r"},
        # A torn raw write to a shared entry must surface.
        {"op": "open", "path": entry, "mode": "wb"},
        # Writes outside the modeled roots fold to nothing.
        {"op": "open", "path": str(tmp_path / "scratch.txt"), "mode": "w"},
        # Loop-only records (sleeps, callback overruns) carry no path.
        {"op": "sleep", "frame": "repro.x.f", "duration_ms": 1.0,
         "stalled": False},
    ]
    observed = sanitize.observed_protocols(events, root, obslog)
    assert observed == {
        ("cache-results", sanitize.PROTOCOL_ATOMIC_RENAME),
        ("cache-results", sanitize.PROTOCOL_RAW_WRITE),
        ("manifest", sanitize.PROTOCOL_APPEND),
        ("obslog", sanitize.PROTOCOL_APPEND),
    }


def test_worker_init_installs_shim_when_armed(monkeypatch, tmp_path):
    """_worker_init is the worker-side arming point: after it runs, the
    traced primitives are live in that process."""
    from repro.experiments import faults, parallel

    arm(monkeypatch, tmp_path)
    spool = tmp_path / "spool"
    spool.mkdir()
    monkeypatch.setattr(parallel, "_worker_trace_dir", None)
    monkeypatch.setattr(parallel, "_worker_traces", {})
    # _worker_init also calls faults.mark_worker(); undo that sticky
    # flag so crash/hang faults stay parent-suppressed in later tests.
    monkeypatch.setattr(faults, "_in_worker", faults._in_worker)
    parallel._worker_init(spool, None, False,
                          parallel.diskcache.engine_fingerprint())
    try:
        assert sanitize.installed()
    finally:
        sanitize.uninstall()
