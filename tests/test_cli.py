"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "3D-LE" in out
    assert "ARC-HW" in out
    assert "4090-Sim" in out


@pytest.fixture
def small_registry(monkeypatch):
    """Swap the workload registry for tiny instances to keep CLI tests
    fast (the real Table 2 workloads take seconds to build)."""
    from repro.workloads import GaussianWorkload

    def fake_load(key):
        return GaussianWorkload(
            key=key, dataset="d", description="x", n_gaussians=80,
            base_scale=0.15, extent=1.0, width=64, height=64, seed=1,
        )

    import repro.cli as cli
    monkeypatch.setattr(cli, "load_workload", fake_load)
    return fake_load


def test_profile(small_registry, capsys):
    assert main(["profile", "-w", "3D-LE"]) == 0
    out = capsys.readouterr().out
    assert "locality" in out
    assert "active lanes" in out


def test_simulate_table(small_registry, capsys):
    assert main([
        "simulate", "-w", "3D-LE", "-g", "3060-Sim",
        "-s", "baseline", "ARC-HW", "ARC-SW-B-8",
    ]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "ARC-HW" in out

    # Unknown strategy -> error exit code.
    assert main(["simulate", "-s", "nonsense"]) == 2


@pytest.mark.parametrize("bad_jobs", ["0", "-3", "many"])
def test_simulate_rejects_non_positive_jobs(bad_jobs, capsys):
    """``--jobs 0`` and friends get a friendly argparse error, not a
    traceback from deep inside the pool machinery."""
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--jobs", bad_jobs])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "positive integer" in err
    assert bad_jobs in err


def test_default_jobs_honors_env(monkeypatch):
    from repro.experiments.parallel import JOBS_ENV, default_jobs

    monkeypatch.setenv(JOBS_ENV, "3")
    assert default_jobs() == 3
    assert default_jobs(fallback=1) == 3  # env wins over the fallback

    for bogus in ("0", "-2", "banana", "  "):
        monkeypatch.setenv(JOBS_ENV, bogus)
        assert default_jobs(fallback=1) == 1  # ignored, not an error

    monkeypatch.delenv(JOBS_ENV)
    assert default_jobs(fallback=4) == 4
    assert default_jobs() >= 1  # cpu_count fallback


def test_simulate_parallel_prints_run_report(small_registry, capsys):
    assert main([
        "simulate", "-w", "3D-LE", "-g", "3060-Sim",
        "-s", "baseline", "ARC-HW", "--jobs", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "execution" in out
    assert "2 cells" in out


def test_train(small_registry, capsys):
    assert main(["train", "-w", "3D-LE", "-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "PSNR" in out


def test_breakdown(small_registry, capsys):
    assert main(["breakdown", "-w", "3D-LE", "-g", "3060-Sim"]) == 0
    out = capsys.readouterr().out
    assert "forward" in out and "grad" in out


def test_tune(small_registry, capsys):
    assert main(["tune", "-w", "3D-LE", "-g", "3060-Sim",
                 "--variant", "B"]) == 0
    out = capsys.readouterr().out
    assert "best" in out


def test_tune_rejects_swb_on_divergent_kernel(monkeypatch, capsys):
    from repro.workloads import SphereWorkload

    def fake_load(key):
        return SphereWorkload(
            key=key, dataset="d", description="x", n_spheres=60,
            base_radius=0.16, width=64, height=64, seed=2,
        )

    import repro.cli as cli
    monkeypatch.setattr(cli, "load_workload", fake_load)
    assert main(["tune", "-w", "PS-SS", "--variant", "B"]) == 2


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


# --------------------------------------------------------------------- #
# Observability surfaces (timelines, Perfetto export, JSON, run logs)
# --------------------------------------------------------------------- #


def test_simulate_json_format(small_registry, capsys):
    import json

    assert main([
        "simulate", "-w", "3D-LE", "-g", "3060-Sim",
        "-s", "baseline", "ARC-HW", "--format", "json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["workload"] == "3D-LE"
    assert doc["gpu"] == "3060-Sim"
    assert {result["strategy"] for result in doc["results"]} \
        == {"baseline", "ARC-HW"}
    assert all(result["total_cycles"] > 0 for result in doc["results"])
    assert doc["skipped"] == []


def test_simulate_json_reports_skipped_strategies(monkeypatch, capsys):
    import json

    from repro.workloads import SphereWorkload

    import repro.cli as cli
    monkeypatch.setattr(cli, "load_workload", lambda key: SphereWorkload(
        key=key, dataset="d", description="x", n_spheres=60,
        base_radius=0.16, width=64, height=64, seed=2,
    ))
    assert main([
        "simulate", "-w", "PS-SS", "-s", "baseline", "ARC-SW-B-8",
        "--format", "json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["skipped"] == ["ARC-SW-B-8"]
    assert {result["strategy"] for result in doc["results"]} == {"baseline"}


def test_simulate_writes_timeline_per_strategy(small_registry, capsys,
                                               tmp_path):
    from repro.profiling import load_timeline, summarize_timeline

    base = tmp_path / "tl.json"
    assert main([
        "simulate", "-w", "3D-LE", "-s", "baseline", "ARC-HW",
        "--timeline", str(base), "-v",
    ]) == 0
    out = capsys.readouterr().out
    assert "timeline written" in out
    for name in ("baseline", "ARC-HW"):
        path = tmp_path / f"tl.{name}.json"
        assert path.exists(), name
        summary = summarize_timeline(load_timeline(path))
        assert summary.strategy == name
        assert summary.total_cycles > 0


def test_simulate_single_strategy_timeline_npz(small_registry, capsys,
                                               tmp_path):
    from repro.profiling import load_timeline

    base = tmp_path / "one.npz"
    assert main([
        "simulate", "-w", "3D-LE", "-s", "baseline",
        "--timeline", str(base),
    ]) == 0
    assert base.exists()
    assert load_timeline(base).meta["strategy"] == "baseline"


def test_profile_json_format(small_registry, capsys):
    import json

    assert main([
        "profile", "-w", "3D-LE", "-g", "4090-Sim",
        "--strategy", "ARC-HW", "--format", "json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["profile"]["n_batches"] > 0
    assert 0.0 <= doc["profile"]["locality"] <= 1.0
    report = doc["stall_report"]
    assert report["strategy"] == "ARC-HW"
    assert report["gpu"] == "4090-Sim"
    assert sum(report["breakdown"].values()) == pytest.approx(1.0)


def test_profile_perfetto_on_histogram_workload(monkeypatch, capsys,
                                                tmp_path):
    """The ISSUE acceptance path: a Perfetto export of the histogram
    workload carries at least one span track per active sub-core plus
    the LSU / ROP / interconnect counter tracks."""
    import json

    from repro.workloads import HistogramWorkload

    import repro.cli as cli
    monkeypatch.setattr(cli, "load_workload", lambda key: HistogramWorkload(
        n_elements=4096, n_bins=64, smoothness=4, seed=7,
    ))
    out_path = tmp_path / "hist.trace.json"
    assert main([
        "profile", "-w", "3D-LE", "--perfetto", str(out_path),
    ]) == 0
    assert "perfetto trace written" in capsys.readouterr().out

    doc = json.loads(out_path.read_text())
    events = doc["traceEvents"]
    begins = [ev for ev in events if ev["ph"] == "B"]
    assert begins
    span_tracks = {ev["tid"] for ev in begins}
    assert len(span_tracks) >= 1
    counter_names = {ev["name"] for ev in events if ev["ph"] == "C"}
    assert any(name.startswith("lsu_queue[sm") for name in counter_names)
    assert any(name.startswith("rop_busy[p") for name in counter_names)
    assert "interconnect_busy" in counter_names


def test_timeline_command(small_registry, capsys, tmp_path):
    import json

    base = tmp_path / "tl.json"
    assert main([
        "simulate", "-w", "3D-LE", "-s", "baseline",
        "--timeline", str(base),
    ]) == 0
    capsys.readouterr()

    assert main(["timeline", str(base)]) == 0
    out = capsys.readouterr().out
    assert "peak LSU occupancy" in out
    assert "interconnect util" in out

    assert main(["timeline", str(base), "--format", "json", "--top", "2"]) \
        == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["strategy"] == "baseline"
    assert len(doc["hot_slots"]) <= 2
    assert isinstance(doc["lsu_saturated"], bool)


def test_timeline_command_rejects_unreadable_file(tmp_path, capsys):
    assert main(["timeline", str(tmp_path / "missing.json")]) == 2
    assert "cannot read timeline" in capsys.readouterr().err


def test_cli_log_flag_writes_obslog(small_registry, capsys, tmp_path):
    import os

    from repro.obslog import OBSLOG_ENV, read_events

    log = tmp_path / "run.jsonl"
    assert main([
        "simulate", "-w", "3D-LE", "-s", "baseline", "--log", str(log),
    ]) == 0
    names = [event["event"] for event in read_events(log)]
    assert names[0] == "cli.start"
    assert names[-1] == "cli.finish"
    # Cache traffic from the run lands in the same stream.
    assert any(name.startswith("cache.") for name in names)
    # The sink does not leak past main().
    assert os.environ.get(OBSLOG_ENV) is None


# --------------------------------------------------------------------- #
# repro cache (sweep reporting)
# --------------------------------------------------------------------- #


def test_cache_reports_sweeps_and_tuning_knob(capsys, tmp_path,
                                              monkeypatch):
    import os
    import time

    from repro.experiments import diskcache

    root = tmp_path / "cache"
    cache = diskcache.configure(root=root, enabled=True)
    shard = root / "results" / "ab"
    shard.mkdir(parents=True)
    orphan = shard / ".deadbeef-stale.tmp"
    orphan.write_text("abandoned")
    ancient = time.time() - 2 * diskcache.sweep_age_seconds()
    os.utime(orphan, (ancient, ancient))
    diskcache.configure(root=root, enabled=True)  # reopen sweeps

    assert main(["cache"]) == 0
    out = capsys.readouterr().out
    assert "swept: 1 orphaned writer temp file(s)" in out
    assert diskcache.SWEEP_AGE_ENV in out


# --------------------------------------------------------------------- #
# repro trace (stitched request timelines)
# --------------------------------------------------------------------- #


def _span_line(name, trace_id, span_id, parent_id, start, dur, **attrs):
    import json

    record = {"event": "span", "ts": start, "pid": 7, "name": name,
              "trace_id": trace_id, "span_id": span_id,
              "parent_id": parent_id, "start_unix": start, "dur_ms": dur}
    record.update(attrs)
    return json.dumps(record, sort_keys=True) + "\n"


def _traced_obslog(path, cell="3D-LE|3060-Sim|baseline"):
    """Two traces: a busy executed request and a two-span memo hit."""
    busy, memo = "a" * 32, "b" * 32
    path.write_text(
        _span_line("svc.queue_wait", busy, "q" * 16, "r" * 16,
                   1000.0005, 2.0, role="broker")
        + _span_line("svc.attempt", busy, "t" * 16, "e" * 16,
                     1000.003, 40.0, role="broker", outcome="ok",
                     attempt=1)
        + _span_line("svc.execute", busy, "e" * 16, "r" * 16,
                     1000.002, 45.0, role="broker", cell=cell)
        + _span_line("svc.request", busy, "r" * 16, "c" * 16,
                     1000.0, 50.0, role="broker", outcome="worker")
        + _span_line("client.request", busy, "c" * 16, None,
                     999.999, 52.0, role="client")
        + _span_line("svc.request", memo, "m" * 16, None,
                     2000.0, 0.2, role="broker", outcome="memo")
        + _span_line("svc.queue_wait", memo, "n" * 16, "m" * 16,
                     2000.0001, 0.1, role="broker")
    )
    return busy, memo


def test_trace_list_shows_trace_ids(capsys, tmp_path):
    sink = tmp_path / "obslog.jsonl"
    busy, memo = _traced_obslog(sink)
    assert main(["trace", str(sink), "--list"]) == 0
    out = capsys.readouterr().out
    assert f"{busy}  5 spans" in out
    assert f"{memo}  2 spans" in out


def test_trace_stitches_busiest_trace_with_engine_spans(small_registry,
                                                        capsys, tmp_path):
    import json

    sink = tmp_path / "obslog.jsonl"
    busy, _ = _traced_obslog(sink)
    out_file = tmp_path / "stitched.json"
    assert main(["trace", str(sink), "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert f"trace {busy}" in out
    assert "client.request" in out and "svc.queue_wait" in out

    stitched = json.loads(out_file.read_text())
    assert stitched["otherData"]["trace_id"] == busy
    service = [e for e in stitched["traceEvents"]
               if e.get("pid") == 100 and e.get("ph") == "X"]
    assert {e["name"] for e in service} == {
        "client.request", "svc.request", "svc.queue_wait",
        "svc.execute", "svc.attempt",
    }
    engine = [e for e in stitched["traceEvents"]
              if e.get("pid") != 100 and e.get("ph") != "M"]
    assert engine, "the traced cell must be re-simulated into the export"
    # Engine sim-time is anchored at the successful attempt span.
    offset = stitched["otherData"]["anchor_offset_us"]
    assert offset == pytest.approx((1000.003 - 999.999) * 1e6)


def test_trace_no_engine_and_explicit_trace_id(capsys, tmp_path):
    import json

    sink = tmp_path / "obslog.jsonl"
    _, memo = _traced_obslog(sink)
    assert main(["trace", str(sink), "--trace-id", memo,
                 "--no-engine", "--format", "json"]) == 0
    stitched = json.loads(capsys.readouterr().out)
    assert stitched["otherData"]["trace_id"] == memo
    assert stitched["otherData"]["span_count"] == 2
    assert "anchor_offset_us" not in stitched["otherData"]
    assert all(e.get("pid") == 100 for e in stitched["traceEvents"])


def test_trace_errors_are_typed(capsys, tmp_path):
    sink = tmp_path / "obslog.jsonl"
    sink.write_text('{"event": "svc.listen", "ts": 1, "pid": 1}\n')
    assert main(["trace", str(sink)]) == 2
    assert "no span records" in capsys.readouterr().err
    _traced_obslog(sink)
    assert main(["trace", str(sink), "--trace-id", "f" * 32]) == 2
    assert "no spans for trace" in capsys.readouterr().err
    assert main(["trace", str(tmp_path / "missing-dir" / "x.jsonl"),
                 "--list"]) == 0  # missing file reads as empty log


def test_trace_unknown_cell_falls_back_to_wall_clock(capsys, tmp_path,
                                                     monkeypatch):
    """An obslog recorded against workloads this checkout cannot load
    still stitches -- with a warning instead of engine spans."""
    import repro.cli as cli

    def explode(key):
        raise KeyError(key)

    monkeypatch.setattr(cli, "load_workload", explode)
    sink = tmp_path / "obslog.jsonl"
    _traced_obslog(sink, cell="GONE|3060-Sim|baseline")
    assert main(["trace", str(sink)]) == 0
    captured = capsys.readouterr()
    assert "cannot re-simulate" in captured.err
    assert "client.request" in captured.out


# --------------------------------------------------------------------- #
# repro request introspection ops
# --------------------------------------------------------------------- #


def test_request_ops_report_unreachable_daemon(capsys, tmp_path):
    sock = str(tmp_path / "nonexistent.sock")
    assert main(["request", "--socket", sock]) == 2
    assert "cannot reach daemon" in capsys.readouterr().err
    assert main(["request", "--socket", sock, "--op", "metrics"]) == 2
    assert "cannot reach daemon" in capsys.readouterr().err


def test_request_metrics_formats_from_live_daemon(capsys, tmp_path,
                                                  monkeypatch):
    """--op metrics round-trips a real daemon: prom output is the
    exposition text, json is the snapshot, text is the compact view."""
    import asyncio
    import json
    import threading

    from repro.obs.metrics import MetricsRegistry
    from repro.service import Broker
    from repro.service.daemon import ServiceDaemon

    socket_path = tmp_path / "cli-metrics.sock"
    broker = Broker(jobs=1, metrics=MetricsRegistry(), session="cli-m")
    daemon = ServiceDaemon(broker, socket_path=socket_path)

    loop_holder = {}

    def serve():
        loop = asyncio.new_event_loop()
        loop_holder["loop"] = loop
        ready = asyncio.Event()
        loop_holder["task"] = loop.create_task(daemon.run(ready))
        loop.run_until_complete(loop_holder["task"])
        loop.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    for _ in range(200):
        if socket_path.exists():
            break
        thread.join(0.05)
    assert socket_path.exists(), "daemon never came up"
    try:
        assert main(["request", "--socket", str(socket_path),
                     "--op", "metrics", "--format", "prom"]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_service_requests_total counter" in prom
        assert "repro_service_breaker_state" in prom

        assert main(["request", "--socket", str(socket_path),
                     "--op", "metrics", "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["repro_service_requests_total"]["type"] == "counter"

        assert main(["request", "--socket", str(socket_path),
                     "--op", "metrics"]) == 0
        text = capsys.readouterr().out
        assert "requests" in text and "breaker=closed" in text

        assert main(["request", "--socket", str(socket_path),
                     "--op", "status"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["stats"]["requests"] == 0
    finally:
        loop_holder["loop"].call_soon_threadsafe(daemon.request_shutdown)
        thread.join(timeout=30)
    assert not thread.is_alive()
