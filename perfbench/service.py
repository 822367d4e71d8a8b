"""service-open and service-hot: the simulation service under load.

service-open -- independent users in an open loop.  Poisson arrivals at
a fixed rate go into an in-process ``Broker`` through ``submit``.  About
70% of requests ask for a cell nobody asked for before and 30% repeat an
earlier one, so the median request is executed by the pool: queue wait,
dispatch, worker trace load, engine, result return and cache write.

service-hot -- callers that wait for their replies, in a closed loop.
Two callers, coroutines on the driver's event loop, send requests over
the unix socket of an in-process ``ServiceDaemon``.  Requests follow a
Zipf popularity over a small catalog of tiny cells, so nearly all are
memo or coalesce hits: the socket and JSON transport, admission, the
memo and the metrics registry do the work while the engine idles.
"""

from __future__ import annotations

import asyncio
import json
import math
import multiprocessing
import os
import random
import time
from typing import NamedTuple

import common
from spans import (
    EngineTracer,
    read_cache_events,
    read_program_spans,
    reference_digests,
    wrap_submit,
)

STRATEGIES = ["baseline", "ARC-HW", "ARC-SW-S-8", "LAB"]
GPUS = ["3060-Sim", "4090-Sim"]
JOBS = 2
#: Admission queue capacity: deep enough that the offered load is never
#: shed, so every request is answered (a shed request counts as failed).
QUEUE_DEPTH = 1024
#: Broker sessions per run.  Each is timed as a setup and answers one
#: cold first request.  The middle one is then measured; the others run
#: before and after it, so the cold-start median samples the host over
#: the whole run.
SESSIONS = 11

#: service-open offered load (requests/s): about half of the 139 req/s
#: a saturated jobs=2 pool sustained on this catalog's mix (2-vCPU host).
OPEN_RATE = 60.0
OPEN_FRESH_SHARE = 0.7
#: The open loop cannot stop for a full probe, so it runs a short one
#: (OPEN_PROBE_ROUNDS round trips, ~0.4 ms) in the idle gap before every
#: OPEN_PROBE_EVERY-th arrival when that gap exceeds OPEN_PROBE_GAP_S:
#: a probe never delays a send.
OPEN_PROBE_ROUNDS = 10
OPEN_PROBE_EVERY = 10
OPEN_PROBE_GAP_S = 0.001
#: (n_batches range) per trace kind: coalesced, mixed, scattered; about
#: 6-20 ms of engine time per cell, so that simulation, not IPC, is the
#: bulk of an executed request.
OPEN_SIZES = ((400, 1000), (160, 400), (60, 160))

#: service-hot requests per second of ``--seconds``, the chunks the soak
#: is cut into (the probe runs between chunks), and the catalog size.
HOT_REQUESTS_PER_S = 4000
HOT_CHUNKS = 40
HOT_TRACES = 24
HOT_SIZES = ((20, 60), (10, 30), (4, 12))
HOT_ZIPF_S = 1.1
HOT_CALLERS = 2


def import_program() -> None:
    """Import every program module this workload uses (part of set-up)."""
    import repro.bench.metrics  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.service.broker  # noqa: F401
    import repro.service.daemon  # noqa: F401
    import repro.trace.synthetic  # noqa: F401


def _catalog(rng: random.Random, prefix: str, count: int, sizes) -> dict:
    """*count* seeded synthetic traces cycling through the coalesced,
    mixed and scattered regimes."""
    from repro.trace.synthetic import (
        coalesced_trace,
        mixed_locality_trace,
        scattered_trace,
    )

    makers = (coalesced_trace, mixed_locality_trace, scattered_trace)
    traces = {}
    for index in range(count):
        low, high = sizes[index % 3]
        name = f"{prefix}{index:03d}"
        traces[name] = makers[index % 3](
            n_batches=rng.randint(low, high), seed=rng.randrange(2**31),
            name=name)
    return traces


def _cells(traces) -> list:
    return [(name, gpu, strategy) for name in traces for gpu in GPUS
            for strategy in STRATEGIES]


def _broker():
    from repro.obs.metrics import MetricsRegistry
    from repro.service.broker import Broker

    return Broker(jobs=JOBS, queue_depth=QUEUE_DEPTH,
                  metrics=MetricsRegistry())


def _request(cell, span_id: "str | None" = None):
    from repro.obs.tracing import new_trace_id
    from repro.service.request import SimRequest

    workload, gpu, strategy = cell
    if span_id is None:
        return SimRequest(workload, gpu, strategy)
    return SimRequest(workload, gpu, strategy, trace_id=new_trace_id(),
                      parent_span=span_id)


def _worker_pids(exclude=()) -> list:
    return [child.pid for child in multiprocessing.active_children()
            if child.pid not in exclude]


def _stats(broker) -> dict:
    snap = broker.snapshot()
    stats = snap["stats"]
    return {
        "broker.requests": stats["requests"],
        "broker.executions": stats["executions"],
        "broker.memo_hits": stats["memo_hits"],
        "broker.coalesced": stats["coalesced"],
        "broker.shed": stats["shed"],
        "broker.degraded": stats["degraded"],
        "broker.failures": stats["failures"],
        "broker.exec_ratio": (stats["executions"] / stats["requests"]
                              if stats["requests"] else 0.0),
        "broker.memo_entries": snap["memoized"],
        "supervisor.restarts": snap.get("supervisor", {}).get("restarts", 0),
    }


def _program_span_metrics(spans, client_ms: dict) -> dict:
    """Per-layer numbers from the program's obslog spans.

    *client_ms* maps a client span id to the latency the driver saw for
    that request; the broker's ``svc.request`` span names it as parent.
    """
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    requests = {s["parent_id"]: s for s in by_name.get("svc.request", [])}
    queue = {s["parent_id"]: s for s in by_name.get("svc.queue_wait", [])}
    execute = {s["parent_id"]: s for s in by_name.get("svc.execute", [])}
    attempts: dict = {}
    for span in by_name.get("svc.attempt", []):
        attempts.setdefault(span["parent_id"], []).append(span)
    worker = {(s.get("cell"), s.get("attempt")): s
              for s in by_name.get("cell.execute", [])}
    dispatch = [a["dur_ms"] - worker[a["cell"], a["attempt"]]["dur_ms"]
                for a in by_name.get("svc.attempt", [])
                if (a.get("cell"), a.get("attempt")) in worker]
    admit, unattributed = [], []
    for client_span, latency in client_ms.items():
        request = requests.get(client_span)
        if request is None:
            continue
        wait = queue.get(request["span_id"])
        if wait is None:
            if request.get("outcome") == "memo":
                admit.append(request["dur_ms"])
            continue
        admit_ms = (wait["start_unix"] - request["start_unix"]) * 1e3
        admit.append(admit_ms)
        run = execute.get(request["span_id"])
        tries = attempts.get(run["span_id"], []) if run else []
        if tries:
            unattributed.append(latency - admit_ms - wait["dur_ms"]
                                - sum(a["dur_ms"] for a in tries))
    first_attempt = min(by_name.get("svc.attempt", []),
                        key=lambda s: s["start_unix"], default=None)
    waits = [s["dur_ms"] for s in by_name.get("svc.queue_wait", [])]
    execs = [s["dur_ms"] for s in by_name.get("svc.execute", [])]
    return {
        "pool.first_response_ms": (first_attempt["dur_ms"]
                                   if first_attempt else 0.0),
        "pool.dispatch_ms": common.median(dispatch),
        "worker.execute_ms": common.median(
            s["dur_ms"] for s in by_name.get("cell.execute", [])),
        "broker.admit_ms": common.median(admit),
        "broker.queue_wait_ms_p50": common.median(waits),
        "broker.queue_wait_ms_p99": (common.percentile(waits, 99)
                                     if waits else 0.0),
        "broker.execute_ms_p50": common.median(execs),
        "unattributed_ms": common.median(unattributed),
    }


def _arm_obslog(scratch) -> str:
    """Point the program's span stream at a file (before a pool spawns,
    so its workers inherit it) and export a session trace root."""
    from repro import obslog
    from repro.obs import tracing

    path = str(scratch.path / "obslog.jsonl")
    obslog.set_obslog_path(path)
    tracing.arm_session()
    return path


async def _cold_only(session, count: int) -> int:
    """Run *count* sessions that only answer their cold first request.

    *session* returns a tuple whose last item stops it.  Returns the
    number of child processes that outlived the shutdowns.
    """
    stragglers = 0
    for _ in range(count):
        *_, stop = await session()
        await stop()
        stragglers += common.reap_children()
    return stragglers


# ------------------------------------------------------------------ #
# service-open
# ------------------------------------------------------------------ #


def _open_schedule(rng: random.Random, cells: list, count: int):
    """*count* (cell, due-seconds) pairs: 70% first-time cells, 30%
    repeats of a cell already asked for (uniformly), Poisson arrivals."""
    fresh = max(1, round(count * OPEN_FRESH_SHARE))
    kinds = ["fresh"] * (fresh - 1) + ["repeat"] * (count - fresh)
    rng.shuffle(kinds)
    kinds.insert(0, "fresh")
    # First-time cells arrive trace by trace (each user explores one
    # scene across strategies and GPUs), so new traces -- and the spool
    # write and worker trace load they cost -- are spread evenly.
    groups: dict = {}
    for cell in cells:
        groups.setdefault(cell[0], []).append(cell)
    order = []
    for name in rng.sample(sorted(groups), len(groups)):
        group = groups[name]
        rng.shuffle(group)
        order += group
    issued, cells_due, due = [], [], 0.0
    for kind in kinds:
        cell = order[len(issued)] if kind == "fresh" else rng.choice(issued)
        if kind == "fresh":
            issued.append(cell)
        due += rng.expovariate(OPEN_RATE)
        cells_due.append((cell, due))
    # Stretch the arrivals to span exactly count / OPEN_RATE seconds, so
    # every seed offers the same load over the same time.
    stretch = count / OPEN_RATE / (due + rng.expovariate(OPEN_RATE))
    return [(cell, at * stretch) for cell, at in cells_due]


class _Answer(NamedTuple):
    """One open-loop request's outcome (``result`` is None if it failed)."""

    cell: tuple
    result: object
    source: str
    due_ms: float  # latency from the due time
    span_id: "str | None"
    send_ms: float  # latency from the send time


async def _open_loop(broker, schedule, traced: bool):
    """Send each request at its due time, whatever is still in flight.

    Latency is measured from the due time, so a stalled generator or
    service shows in every request that had to wait behind it.
    """
    loop = asyncio.get_running_loop()
    start = loop.time()
    lags, tasks, probes = [], [], []

    async def one(index, cell, due_at):
        span_id = f"{index + 1:016x}" if traced else None
        sent = loop.time()
        try:
            response = await broker.submit(_request(cell, span_id))
        except Exception as exc:  # a shed/failed request is counted
            return _Answer(cell, None, type(exc).__name__, 0.0, span_id, 0.0)
        done = loop.time()
        return _Answer(cell, response.result, response.source,
                       (done - due_at) * 1e3, span_id, (done - sent) * 1e3)

    for index, (cell, due) in enumerate(schedule):
        delay = start + due - loop.time()
        if index % OPEN_PROBE_EVERY == 0 and delay > OPEN_PROBE_GAP_S:
            probes.append(common.probe_once(OPEN_PROBE_ROUNDS))
            delay = start + due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append((loop.time() - start - due) * 1e3)
        tasks.append(asyncio.create_task(one(index, cell, start + due)))
    results = await asyncio.gather(*tasks)
    elapsed = loop.time() - start
    return results, lags, elapsed, probes


async def _open_session(scratch, traces, warm, setup, cold):
    """One timed setup plus its cold first request; returns the broker."""
    start = time.perf_counter()
    common.fresh_state(scratch, {**traces, **warm})
    broker = _broker()
    await broker.start()
    setup.append(time.perf_counter() - start)
    first = time.perf_counter()
    response = await broker.submit(_request(_cells(warm)[0]))
    cold.append(((time.perf_counter() - first) * 1e3, response))
    return broker


async def _warm(broker, warm) -> list:
    """Two concurrent requests make the pool spawn its second worker;
    returns once every worker has finished starting up."""
    responses = await asyncio.gather(*(broker.submit(_request(cell))
                                       for cell in _cells(warm)[1:3]))
    await _pool_idle(_worker_pids())
    return responses


async def _pool_idle(pids, quiet_s: float = 0.2, timeout_s: float = 20.0):
    """Wait until the pool workers *pids* stop using CPU.

    A spawned worker imports the program before it takes work; timing
    must not start while one is still doing so.  A worker is idle once
    its CPU time has not moved for *quiet_s*.
    """
    def cpu_ticks():
        total = 0
        for pid in pids:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime + stime
        return total

    deadline = time.monotonic() + timeout_s
    last, quiet_since = cpu_ticks(), time.monotonic()
    while time.monotonic() < deadline:
        await asyncio.sleep(0.05)
        now = cpu_ticks()
        if now != last:
            last, quiet_since = now, time.monotonic()
        elif time.monotonic() - quiet_since >= quiet_s:
            return
    raise RuntimeError(f"pool workers {pids} never went idle")


async def _run_open(args, scratch, log) -> dict:
    from repro.bench.metrics import sim_digest

    rng = random.Random(args.seed)
    count = max(4, round(OPEN_RATE * args.seconds))
    n_traces = math.ceil(count * OPEN_FRESH_SHARE
                         / (len(GPUS) * len(STRATEGIES)))
    setup, cold, gen_ms = [], [], []

    async def session():
        start = time.perf_counter()
        session_rng = random.Random(args.seed)
        traces = _catalog(session_rng, "SO-", n_traces + 2, OPEN_SIZES)
        warm = _catalog(session_rng, "SO-warm-", 1, OPEN_SIZES)
        gen_ms.append((time.perf_counter() - start) * 1e3)
        broker = await _open_session(scratch, traces, warm, setup, cold)
        setup[-1] += gen_ms[-1] / 1e3
        return traces, warm, broker, broker.stop

    stragglers = await _cold_only(session, SESSIONS // 2)
    traces, warm, broker, _ = await session()
    warm_responses = await _warm(broker, warm)

    if args.trace:
        half = max(2, count // 2)
        names = sorted(traces)
        plain = _open_schedule(
            rng, _cells(names[: len(names) // 2]), half)
        traced_schedule = _open_schedule(
            rng, _cells(names[len(names) // 2:]), half)
    else:
        plain = _open_schedule(rng, _cells(traces), count)
    results, lags, elapsed, probes = await _open_loop(broker, plain,
                                                     traced=False)
    rss = common.peak_rss_mb(_worker_pids())
    await broker.stop()
    stragglers += common.reap_children()
    stragglers += await _cold_only(session, SESSIONS - 1 - SESSIONS // 2)

    layer = None
    all_results = list(results)
    if args.trace:
        obslog_path = _arm_obslog(scratch)
        from repro.experiments import diskcache

        with EngineTracer(log, ()) as key_tracer:
            cold_traced = []
            broker = await _open_session(scratch, traces, warm, [], cold_traced)
            submit_ms: dict = {}
            wrap_submit(broker, log, submit_ms)
            warm_responses += await _warm(broker, warm)
            traced_results, _, _, _ = await _open_loop(
                broker, traced_schedule, traced=True)
            stats = _stats(broker)
            cache_root = diskcache.active_cache().root
            await broker.stop()
        stragglers += common.reap_children()
        from repro import obslog

        obslog.set_obslog_path(None)
        all_results += traced_results
        client_ms = {a.span_id: a.send_ms for a in traced_results
                     if a.result is not None}
        layer = _program_span_metrics(read_program_spans(obslog_path),
                                      client_ms)
        lookups, hits = read_cache_events(obslog_path)
        layer.update(stats)
        layer.update({
            "diskcache.key_ms": key_tracer.key_ms,
            "diskcache.lookups": lookups,
            "diskcache.hit_ratio": hits / lookups if lookups else 0.0,
            "diskcache.bytes_written": sum(
                p.stat().st_size for p in cache_root.rglob("*.json")),
            "obs.trace_overhead_ratio": (
                common.percentile(_latencies(traced_results), 50)
                / common.percentile(_latencies(results), 50)),
        })
        cold += cold_traced

    # Outputs: every response against a serial reference.
    all_traces = {**traces, **warm}
    answered = [(a.cell, sim_digest(a.result)) for a in all_results
                if a.result is not None]
    answered += [(_cells(warm)[0], sim_digest(r.result)) for _, r in cold]
    answered += [(cell, sim_digest(r.result))
                 for cell, r in zip(_cells(warm)[1:3] * 2, warm_responses)]
    digests, engine = reference_digests(
        [cell for cell, _ in answered], all_traces,
        log if args.trace else None, STRATEGIES)
    mismatched = sum(digest != digests[cell] for cell, digest in answered)
    unanswered = sum(a.result is None for a in all_results)
    latencies = _latencies(results)
    completed = len(latencies)
    attempted = len(all_results) + len(cold) + len(warm_responses)
    failed = mismatched + unanswered + stragglers
    probe_ms = common.median(probes or [common.probe_once(OPEN_PROBE_ROUNDS)])
    scale = common.factor(probe_ms, OPEN_PROBE_ROUNDS)

    out = {
        "e2e": {
            "setup_s": common.median(setup),
            "ops_per_s": completed / elapsed,
            "latency_p50_ms": common.percentile(latencies, 50) * scale,
            "cold_start_ms": common.median(ms for ms, _ in cold[:SESSIONS]),
            "peak_rss_mb": rss,
        },
        "attempted": attempted,
        "failed": failed,
        "counts": {
            "requests": len(all_results),
            "fresh_cells": len({a.cell for a in all_results}),
            "catalog.traces": len(traces),
            "capture.batches": sum(t.n_batches for t in traces.values()),
            "capture.lane_ops": sum(t.total_lane_ops
                                    for t in traces.values()),
            "digests": sorted(set(digests.values())),
        },
        "notes": {"latency_samples": completed,
                  "beyond_p99": completed - math.ceil(0.99 * completed),
                  "offered_rate": OPEN_RATE,
                  "cold_start_samples": [round(ms, 1)
                                         for ms, _ in cold[:SESSIONS]],
                  "sources": _sources(results)},
        "calib": {
            "calib.probe_ms": probe_ms * common.PROBE_ROUNDS / OPEN_PROBE_ROUNDS,
            "loadgen.lag_p99_ms": common.percentile(lags, 99),
            "latency_p99_ms": common.percentile(latencies, 99) * scale,
            "raw.ops_per_s": completed / elapsed,
            "raw.latency_p50_ms": common.percentile(latencies, 50),
            "raw.latency_p99_ms": common.percentile(latencies, 99),
        },
    }
    if layer is not None:
        layer.update(engine)
        layer.update({
            "capture.ms": common.median(gen_ms),
            "capture.batches": out["counts"]["capture.batches"],
            "capture.lane_ops": out["counts"]["capture.lane_ops"],
        })
        out["layer"] = layer
    return out


def _latencies(answers) -> list:
    return [a.due_ms for a in answers if a.result is not None]


def _sources(answers) -> dict:
    counts: dict = {}
    for answer in answers:
        counts[answer.source] = counts.get(answer.source, 0) + 1
    return counts


# ------------------------------------------------------------------ #
# service-hot
# ------------------------------------------------------------------ #


class _Caller:
    """One closed-loop caller: a persistent connection and its replies.

    The callers are coroutines on the driver's own event loop, next to
    the daemon, so a round trip never waits for the scheduler to wake
    another process on another core.
    """

    def __init__(self, requests: list):
        self.requests = requests
        self.first: dict = {}
        self.differing: dict = {}

    async def connect(self, socket_path: str) -> None:
        self.reader, self.writer = await asyncio.open_unix_connection(
            socket_path)

    async def run(self, low: int, high: int, traced: bool) -> tuple:
        """Send requests ``[low, high)`` one after another, timing each
        round trip.  Every reply's result must equal the first reply for
        its cell; any that differs is kept for the digest check."""
        latencies, failures, records = [], 0, []
        clock = time.perf_counter
        for index in range(low, high):
            workload, gpu, strategy = cell = self.requests[index]
            payload = {"op": "simulate", "workload": workload, "gpu": gpu,
                       "strategy": strategy}
            if traced:
                span_id = os.urandom(8).hex()
                payload["trace"] = {"trace_id": os.urandom(16).hex(),
                                    "span_id": span_id}
            data = (json.dumps(payload) + "\n").encode("utf-8")
            start = clock()
            self.writer.write(data)
            line = await self.reader.readline()
            rtt = (clock() - start) * 1e3
            reply = json.loads(line)
            if reply.get("status") != "ok":
                failures += 1
                continue
            result = reply["result"]
            first = self.first.setdefault(cell, result)
            if result is not first and result != first:
                self.differing.setdefault(cell, []).append(result)
            latencies.append(rtt)
            if traced:
                records.append((span_id, rtt, len(line)))
        return latencies, failures, records

    def digests(self) -> dict:
        """Digest of every result this caller saw, per cell."""
        from repro.bench.metrics import sim_digest
        from repro.gpu import SimResult

        return {cell: {sim_digest(SimResult.from_dict(r))
                       for r in [first, *self.differing.get(cell, ())]}
                for cell, first in self.first.items()}

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def _socket_call(path: str, payload: dict) -> dict:
    reader, writer = await asyncio.open_unix_connection(path)
    try:
        writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


def _simulate_op(cell) -> dict:
    workload, gpu, strategy = cell
    return {"op": "simulate", "workload": workload, "gpu": gpu,
            "strategy": strategy}


async def _hot_session(scratch, traces, warm, setup, cold):
    """Timed setup (catalog, daemon ready) plus one cold request."""
    from repro.service.daemon import ServiceDaemon

    start = time.perf_counter()
    common.fresh_state(scratch, {**traces, **warm})
    broker = _broker()
    daemon = ServiceDaemon(broker, socket_path=scratch.socket_path())
    ready = asyncio.Event()
    task = asyncio.create_task(daemon.run(ready))
    await ready.wait()
    setup.append(time.perf_counter() - start)
    first = time.perf_counter()
    reply = await _socket_call(str(daemon.socket_path),
                               _simulate_op(_cells(warm)[0]))
    cold.append(((time.perf_counter() - first) * 1e3, reply))
    return daemon, task


async def _stop_daemon(daemon, task) -> None:
    daemon.request_shutdown()
    await task


def _hot_requests(rng: random.Random, cells: list, count: int) -> list:
    """Zipf popularity over *cells* in a seeded random rank order."""
    ranked = list(cells)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** HOT_ZIPF_S for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=count)


async def _run_hot(args, scratch, log) -> dict:
    count = HOT_REQUESTS_PER_S * args.seconds
    chunks = max(2, min(HOT_CHUNKS, count // 200))
    setup, cold, gen_ms = [], [], []

    async def session():
        start = time.perf_counter()
        rng = random.Random(args.seed)
        traces = _catalog(rng, "SH-", HOT_TRACES, HOT_SIZES)
        warm = _catalog(rng, "SH-warm-", 1, HOT_SIZES)
        gen_ms.append((time.perf_counter() - start) * 1e3)
        daemon, task = await _hot_session(scratch, traces, warm, setup, cold)
        setup[-1] += gen_ms[-1] / 1e3
        return rng, traces, warm, daemon, lambda: _stop_daemon(daemon, task)

    stragglers = await _cold_only(session, SESSIONS // 2)
    obslog_path = _arm_obslog(scratch) if args.trace else None
    rng, traces, warm, daemon, stop = await session()
    socket_path = str(daemon.socket_path)
    warm_replies = await asyncio.gather(*(
        _socket_call(socket_path, _simulate_op(cell))
        for cell in _cells(warm)[1:3]))
    await _pool_idle(_worker_pids())

    requests = _hot_requests(rng, _cells(traces), count)
    callers = [_Caller(requests[i::HOT_CALLERS]) for i in range(HOT_CALLERS)]
    for caller in callers:
        await caller.connect(socket_path)

    from repro import obslog

    if obslog_path is not None:
        obslog.set_obslog_path(None)
    latencies, raw_latencies, norm_s, raw_s, probes = [], [], [], [], []
    traced_s, plain_s, records, failures = [], [], [], 0
    submit_ms: dict = {}
    key_tracer = EngineTracer(log, ())
    for chunk in range(chunks):
        traced = bool(args.trace) and chunk % 2 == 1
        probe_ms = common.probe()
        factor = common.factor(probe_ms)
        if traced:
            obslog.set_obslog_path(obslog_path)
            wrap_submit(daemon.broker, log, submit_ms)
            key_tracer.__enter__()
        start = time.perf_counter()
        replies = await asyncio.gather(*(
            caller.run(len(caller.requests) * chunk // chunks,
                       len(caller.requests) * (chunk + 1) // chunks, traced)
            for caller in callers))
        wall = time.perf_counter() - start
        if traced:
            key_tracer.__exit__(None, None, None)
            del daemon.broker.submit
            obslog.set_obslog_path(None)
        probes.append(probe_ms)
        raw_s.append(wall)
        norm_s.append(wall * factor)
        (traced_s if traced else plain_s).append(wall * factor)
        for chunk_latencies, chunk_failures, chunk_records in replies:
            raw_latencies += chunk_latencies
            latencies += [ms * factor for ms in chunk_latencies]
            failures += chunk_failures
            records += chunk_records

    rss = common.peak_rss_mb(_worker_pids())
    stats = _stats(daemon.broker)
    for caller in callers:
        await caller.close()
    await stop()
    stragglers += common.reap_children()
    stragglers += await _cold_only(session, SESSIONS - 1 - SESSIONS // 2)

    answered = [(cell, d) for caller in callers
                for cell, values in caller.digests().items() for d in values]
    answered += [(_cells(warm)[0], _reply_digest(r)) for _, r in cold]
    answered += [(cell, _reply_digest(r))
                 for cell, r in zip(_cells(warm)[1:3], warm_replies)]
    all_traces = {**traces, **warm}
    digests, engine = reference_digests(
        [cell for cell, _ in answered], all_traces,
        log if args.trace else None, STRATEGIES)
    mismatched = sum(d != digests[cell] for cell, d in answered)
    failed = mismatched + failures + stragglers
    attempted = count + len(cold) + len(warm_replies)

    out = {
        "e2e": {
            "setup_s": common.median(setup),
            "ops_per_s": count / sum(norm_s),
            "latency_p50_ms": common.percentile(latencies, 50),
            "cold_start_ms": common.median(ms for ms, _ in cold),
            "peak_rss_mb": rss,
        },
        "attempted": attempted,
        "failed": failed,
        "counts": {
            "requests": count,
            "fresh_cells": len(set(requests)),
            "catalog.traces": len(traces),
            "capture.batches": sum(t.n_batches for t in traces.values()),
            "capture.lane_ops": sum(t.total_lane_ops
                                    for t in traces.values()),
            "digests": sorted(set(digests.values())),
        },
        "notes": {"latency_samples": len(latencies),
                  "beyond_p99": len(latencies)
                  - math.ceil(0.99 * len(latencies)),
                  "callers": HOT_CALLERS,
                  "cold_start_samples": [round(ms, 1) for ms, _ in cold],
                  "hit_share": 1 - stats["broker.executions"]
                  / stats["broker.requests"]},
        "calib": {
            "calib.probe_ms": common.median(probes),
            "raw.ops_per_s": count / sum(raw_s),
            "latency_p99_ms": common.percentile(latencies, 99),
            "raw.latency_p50_ms": common.percentile(raw_latencies, 50),
            "raw.latency_p99_ms": common.percentile(raw_latencies, 99),
        },
    }
    if args.trace:
        spans = read_program_spans(obslog_path)
        requests_by_client = {s["parent_id"]: s for s in spans
                              if s["name"] == "svc.request"}
        overhead = [rtt - requests_by_client[sid]["dur_ms"]
                    for sid, rtt, _ in records if sid in requests_by_client]
        layer = _program_span_metrics(spans, {})
        layer.update(stats)
        layer.update(engine)
        layer.update({
            "broker.admit_ms": common.median(
                s["dur_ms"] for s in requests_by_client.values()
                if s.get("outcome") == "memo"),
            "socket.overhead_ms": common.median(overhead),
            "socket.reply_bytes": common.median(n for _, _, n in records),
            "unattributed_ms": common.median(
                rtt - submit_ms[sid] for sid, rtt, _ in records
                if sid in submit_ms),
            "obs.trace_overhead_ratio": (common.median(traced_s)
                                         / common.median(plain_s)),
            "capture.ms": common.median(gen_ms),
            "capture.batches": out["counts"]["capture.batches"],
            "capture.lane_ops": out["counts"]["capture.lane_ops"],
            "diskcache.key_ms": key_tracer.key_ms,
        })
        lookups, hits = read_cache_events(obslog_path)
        layer.update({"diskcache.lookups": lookups,
                      "diskcache.hit_ratio": hits / lookups if lookups else 0.0})
        out["layer"] = layer
    return out


def _reply_digest(reply: dict) -> str:
    from repro.bench.metrics import sim_digest
    from repro.gpu import SimResult

    if reply.get("status") != "ok":
        return "unanswered:" + str(reply.get("status"))
    return sim_digest(SimResult.from_dict(reply["result"]))


def run(args, scratch, imports_s: float, log) -> dict:
    runner_ = _run_open if args.workload == "service-open" else _run_hot
    out = asyncio.run(runner_(args, scratch, log))
    out["e2e"]["setup_s"] += imports_s
    return out
