"""Structured run logging: JSONL round-trips and the event contract.

Unit tests pin the :mod:`repro.obslog` primitives (env-carried sink,
append-only JSONL, torn-line tolerance); the integration tests drive
:func:`~repro.experiments.parallel.run_matrix_parallel` -- including
under the fault-injection harness -- and assert the promised event
stream: the broker's ``svc.*`` admission, attempt and finish events for
every cell, its cache disposition, and resume decisions, deterministic
across reruns.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obslog
from repro.experiments import diskcache, faults, runner
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.parallel import run_matrix_parallel
from repro.experiments.resilience import RetryPolicy
from repro.experiments.runner import clear_caches
from repro.trace import coalesced_trace

WORKLOADS = ["P1", "P2"]
STRATEGIES = ["baseline", "ARC-HW"]
GPUS = ["3060-Sim"]
CELL_IDS = {
    f"{workload}|{gpu}|{strategy}"
    for workload in WORKLOADS for gpu in GPUS for strategy in STRATEGIES
}

#: Fields whose values vary run to run (clocks, pids, tmp dirs, and the
#: random span/trace identifiers plus wall-clock span timings) -- the
#: deterministic contract covers everything else.
VOLATILE_FIELDS = ("ts", "pid", "duration", "backoff", "cache_root",
                   "trace_id", "span_id", "parent_id", "start_unix",
                   "dur_ms", "elapsed_ms", "exec_span_id")


class FakeWorkload:
    """Deterministic synthetic stand-in for a Table 2 workload.

    Each key gets its own seed: the disk cache is keyed on trace
    *content*, so identical traces under different names would share
    entries and muddle the per-cell cache bookkeeping under test.
    """

    def __init__(self, key, seed):
        self.key = key
        self.seed = seed

    def capture_trace(self):
        return coalesced_trace(n_batches=200, num_params=4, seed=self.seed,
                               name=self.key)


@pytest.fixture
def fake_registry(monkeypatch):
    fakes = {key: FakeWorkload(key, seed=11 + index)
             for index, key in enumerate(WORKLOADS)}
    monkeypatch.setattr(runner, "load_workload", lambda key: fakes[key])
    return fakes


@pytest.fixture(autouse=True)
def clean_fault_plan():
    faults.configure(None)
    yield
    faults.configure(None)


@pytest.fixture
def obslog_sink(tmp_path):
    """Point the run log at a scratch file; always restore the old sink."""
    path = tmp_path / "events.jsonl"
    previous = obslog.set_obslog_path(path)
    yield path
    obslog.set_obslog_path(previous)


def quick_policy():
    return RetryPolicy(max_attempts=3, timeout=None,
                       backoff_base=0.01, backoff_max=0.05)


def events_by_name(events):
    grouped: dict = {}
    for event in events:
        grouped.setdefault(event["event"], []).append(event)
    return grouped


# --------------------------------------------------------------------- #
# Primitives
# --------------------------------------------------------------------- #

def test_emit_is_a_no_op_without_a_sink(tmp_path, monkeypatch):
    monkeypatch.delenv(obslog.OBSLOG_ENV, raising=False)
    assert obslog.obslog_path() is None
    obslog.emit("orphan", detail=1)  # must not raise or create files
    assert list(tmp_path.iterdir()) == []


def test_emit_and_read_round_trip(obslog_sink):
    obslog.emit("alpha", n=1, name="first")
    obslog.emit("beta", ratio=0.5, items=["a", "b"])
    events = obslog.read_events(obslog_sink)
    assert [event["event"] for event in events] == ["alpha", "beta"]
    assert events[0]["n"] == 1 and events[0]["name"] == "first"
    assert events[1]["items"] == ["a", "b"]
    for event in events:
        assert event["ts"] > 0
        assert event["pid"] == os.getpid()


def test_set_obslog_path_carries_through_the_environment(tmp_path):
    path = tmp_path / "carried.jsonl"
    previous = obslog.set_obslog_path(path)
    try:
        assert os.environ[obslog.OBSLOG_ENV] == str(path)
        assert obslog.obslog_path() == str(path)
    finally:
        obslog.set_obslog_path(previous)
    assert obslog.obslog_path() is None


def test_read_events_skips_blank_and_torn_lines(tmp_path):
    path = tmp_path / "torn.jsonl"
    good = json.dumps({"event": "ok", "ts": 1.0, "pid": 1})
    path.write_text(f"{good}\n\n{{\"event\": \"torn\", \"ts\":\n{good}\n")
    events = obslog.read_events(path)
    assert [event["event"] for event in events] == ["ok", "ok"]


def test_read_events_on_missing_file(tmp_path):
    assert obslog.read_events(tmp_path / "absent.jsonl") == []


# --------------------------------------------------------------------- #
# Run-scoped event stream
# --------------------------------------------------------------------- #

def attempt_spans(grouped):
    """The broker's per-attempt ``svc.attempt`` span records."""
    return [span for span in grouped.get("span", ())
            if span["name"] == "svc.attempt"]


def test_parallel_run_logs_every_cell(fake_registry, obslog_sink):
    """A clean parallel run logs the broker session, every cell's
    admission, attempt and finish, and each cell's cache disposition."""
    run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                        policy=quick_policy())
    grouped = events_by_name(obslog.read_events(obslog_sink))

    assert len(grouped["svc.start"]) == 1
    start = grouped["svc.start"][0]
    assert start["queue_depth"] == len(CELL_IDS) and start["jobs"] == 2

    for name in ("svc.accept", "svc.finish"):
        assert {event["cell"] for event in grouped[name]} == CELL_IDS, name
    assert {span["cell"] for span in attempt_spans(grouped)} == CELL_IDS
    assert all(span["outcome"] == "ok" for span in attempt_spans(grouped))
    assert "svc.attempt" not in grouped, "a clean run has no failed attempt"

    # Cold cache: every cell misses once and is written back once.  The
    # keyed writes let the log answer "where did this result come from".
    cell_keys = {event["key"] for event in grouped["svc.finish"]}
    assert len(cell_keys) == len(CELL_IDS)
    assert {event["key"] for event in grouped["cache.miss"]} == cell_keys
    assert {event["key"] for event in grouped["cache.write"]} == cell_keys

    stop = grouped["svc.stop"][0]
    assert stop["requests"] == len(CELL_IDS)
    assert stop["completed"] == len(CELL_IDS)
    assert "cell.skip" not in grouped


def test_resumed_run_logs_skip_decisions(fake_registry, obslog_sink):
    """Interrupt a run, then resume: the second log must record one
    `cell.skip` (cached) per cell the disk cache holds."""
    faults.configure(FaultPlan((
        FaultSpec(cell="P1|3060-Sim|baseline", kind="interrupt"),
    )))
    with pytest.raises(KeyboardInterrupt):
        run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                            policy=quick_policy())
    first = events_by_name(obslog.read_events(obslog_sink))
    completed = {event["cell"] for event in first.get("svc.finish", ())}
    assert completed, "the interrupting cell finishes before raising"
    # A worker can store a cell whose reply the interrupt cut off.
    cache = diskcache.active_cache()
    cached = {event["cell"] for event in first["svc.accept"]
              if cache.entry_path(event["key"]).exists()}
    assert completed <= cached

    faults.configure(None)
    clear_caches()
    obslog_sink.unlink()
    run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                        policy=quick_policy())
    grouped = events_by_name(obslog.read_events(obslog_sink))
    skips = grouped["cell.skip"]
    assert {event["cell"] for event in skips} == cached
    assert all(event["reason"] == "cached" for event in skips)
    assert sum(stop["requests"] for stop in grouped.get("svc.stop", ())) \
        == len(CELL_IDS) - len(cached)
    assert {event["cell"] for event in grouped.get("svc.finish", ())} \
        == CELL_IDS - cached


def stripped(events):
    """Multiset of events with run-varying fields removed."""
    cleaned = []
    for event in events:
        cleaned.append(json.dumps(
            {key: value for key, value in event.items()
             if key not in VOLATILE_FIELDS},
            sort_keys=True,
        ))
    return sorted(cleaned)


def test_event_set_is_deterministic_under_fault_injection(
        fake_registry, obslog_sink, tmp_path):
    """Two cold runs under the same PR 3 fault plan (one transient error,
    retried in-pool) produce the same event multiset once clocks and
    pids are stripped."""
    plan = FaultPlan((
        FaultSpec(cell="P1|3060-Sim|baseline", kind="error", times=1),
    ))
    streams = []
    for attempt in range(2):
        faults.configure(plan)
        clear_caches()
        obslog_sink.write_text("")
        with diskcache.isolated(tmp_path / f"cache-{attempt}"):
            run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                                policy=quick_policy())
        streams.append(stripped(obslog.read_events(obslog_sink)))
    assert streams[0] == streams[1]

    grouped = events_by_name(
        [json.loads(line) for line in streams[0]]
    )
    assert {(event["cell"], event["outcome"])
            for event in grouped["svc.attempt"]} \
        == {("P1|3060-Sim|baseline", "error")}
    outcomes = [span["outcome"] for span in attempt_spans(grouped)
                if span["cell"] == "P1|3060-Sim|baseline"]
    assert sorted(outcomes) == ["error", "ok"]


# --------------------------------------------------------------------- #
# Reader robustness under concurrent writers (PR 10)
# --------------------------------------------------------------------- #
#
# The span stitcher and every post-mortem tool sit on read_events, so
# its torn-line contract gets its own proofs: a property-style corpus
# of interleaved/corrupted streams, and real O_APPEND contention from
# concurrent writer processes.

from hypothesis import given, settings
from hypothesis import strategies as st

_record_fields = st.fixed_dictionaries({
    "writer": st.integers(min_value=0, max_value=7),
    "seq": st.integers(min_value=0, max_value=999),
    "payload": st.text(
        alphabet=st.characters(codec="utf-8",
                               blacklist_categories=("Cs",)),
        max_size=40,
    ),
})


def _serialize(record):
    payload = {"event": "prop.write", "ts": 0.0, "pid": 1}
    payload.update(record)
    return json.dumps(payload, sort_keys=True) + "\n"


@st.composite
def _torn_corpus(draw):
    """(file bytes, expected surviving records).

    Complete single-write lines from many writers in any interleaving,
    salted with blank lines, strict-prefix "partial flush" fragments
    (newline-terminated, so they corrupt only themselves), and
    optionally one torn tail with no newline -- the only corruption
    O_APPEND single-write emission can actually produce mid-file being
    a killed writer's final line.
    """
    good = draw(st.lists(_record_fields, max_size=12))
    chunks = []
    for record in good:
        line = _serialize(record)
        # Prepend junk *lines* before some records: blank, or a strict
        # prefix of a valid record plus newline (a partial flush that
        # got its newline from a later writer's torn start).
        if draw(st.booleans()):
            donor = _serialize(draw(_record_fields))
            cut = draw(st.integers(min_value=0,
                                   max_value=len(donor) - 2))
            chunks.append(donor[:cut] + "\n")
        chunks.append(line)
    if draw(st.booleans()):  # torn tail: a suffix-less final write
        donor = _serialize(draw(_record_fields))
        # Strict prefix of the object itself: cutting only the newline
        # leaves a complete record, which the reader rightly keeps (see
        # test_reader_keeps_complete_final_line_without_newline).
        cut = draw(st.integers(min_value=1, max_value=len(donor) - 2))
        chunks.append(donor[:cut])
    return "".join(chunks), good


@settings(max_examples=60, deadline=None)
@given(_torn_corpus())
def test_reader_survives_any_torn_interleaving(tmp_path_factory, corpus):
    """Property: whatever mix of complete lines, partial flushes and a
    torn tail lands in the file, read_events returns exactly the
    complete records, in file order, and never raises."""
    content, good = corpus
    path = tmp_path_factory.mktemp("torn") / "obslog.jsonl"
    path.write_text(content, encoding="utf-8")
    events = obslog.read_events(path)
    assert [
        {"writer": e["writer"], "seq": e["seq"], "payload": e["payload"]}
        for e in events
    ] == good


def test_reader_keeps_complete_final_line_without_newline(tmp_path):
    """A final write that lost only its newline is still a whole JSON
    object: read_events returns it, unlike a tail cut inside the
    object, which it drops."""
    first = {"writer": 0, "seq": 0, "payload": "a"}
    last = {"writer": 1, "seq": 1, "payload": "b"}
    path = tmp_path / "obslog.jsonl"
    path.write_text(_serialize(first) + _serialize(last)[:-1],
                    encoding="utf-8")
    assert [e["payload"] for e in obslog.read_events(path)] == ["a", "b"]
    path.write_text(_serialize(first) + _serialize(last)[:-2],
                    encoding="utf-8")
    assert [e["payload"] for e in obslog.read_events(path)] == ["a"]


def test_concurrent_writer_processes_never_tear_lines(tmp_path):
    """Real contention: several writer processes hammer one sink via
    O_APPEND single-write emit; the reader recovers every record, each
    writer's sequence intact and in order, with zero dropped lines."""
    import subprocess
    import sys
    from pathlib import Path

    sink = tmp_path / "mp-obslog.jsonl"
    writers, per_writer = 4, 200
    script = (
        "import sys\n"
        "from repro import obslog\n"
        "writer = int(sys.argv[1])\n"
        "for seq in range(int(sys.argv[2])):\n"
        "    obslog.emit('mp.write', writer=writer, seq=seq,\n"
        "                payload='x' * 512)\n"
    )
    env = dict(os.environ)
    env["REPRO_OBSLOG"] = str(sink)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    procs = [
        subprocess.Popen([sys.executable, "-c", script, str(i),
                          str(per_writer)], env=env)
        for i in range(writers)
    ]
    for proc in procs:
        assert proc.wait(timeout=120) == 0

    raw_lines = sink.read_text(encoding="utf-8").splitlines()
    events = obslog.read_events(sink)
    assert len(raw_lines) == len(events) == writers * per_writer, \
        "O_APPEND single-write emission must never tear under contention"
    by_writer = {}
    for event in events:
        by_writer.setdefault(event["writer"], []).append(event["seq"])
    assert set(by_writer) == set(range(writers))
    for writer, seqs in by_writer.items():
        assert seqs == list(range(per_writer)), \
            f"writer {writer} out of order"

    # A crash-torn tail (no newline) hides that line only.
    with open(sink, "a", encoding="utf-8") as handle:
        handle.write('{"event": "mp.write", "writer": 0, "seq": 99')
    assert len(obslog.read_events(sink)) == writers * per_writer
