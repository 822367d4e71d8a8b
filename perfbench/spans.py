"""Driver-side tracing for the traced run.

The benchmark adds no spans inside ``src/``.  Instead, for the traced
run only, it wraps the public entry points of the layers it drives --
strategy ``plan_batch``, ``simulate_kernel``, ``diskcache.result_key``,
``DiskCache.load``/``store``, ``runner.get_result`` and
``Broker.submit`` -- from here, and restores them afterwards.  Spans
stay in memory and are written out (``--spans``) when the run ends.
Work inside pool workers is read back from the program's own obslog
span stream instead (see :func:`read_program_spans`).
"""

from __future__ import annotations

import json
import time


class SpanLog:
    """In-memory span list: name, start, duration, parent and attrs."""

    def __init__(self):
        self.spans: list[dict] = []

    def add(self, name: str, start: float, dur_ms: float,
            parent: "int | None" = None, **attrs) -> int:
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": start, "dur_ms": dur_ms,
                           "parent": parent, **attrs})
        return len(self.spans) - 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, default=str) + "\n")


class _Patches:
    """Attribute swaps undone in reverse order on exit."""

    def __init__(self):
        self._saved = []

    def swap(self, owner, name: str, wrapper_factory) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, owner.__dict__.get(name, _MISSING)))
        setattr(owner, name, wrapper_factory(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            if value is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


_MISSING = object()


class EngineTracer:
    """Times the simulate path of one process while active.

    ``plan_batch`` runs once per warp batch, so it is aggregated (time,
    calls) into the enclosing ``simulate_kernel`` span instead of being
    recorded one span per call.  :attr:`attributed_ms` sums the spans
    of the current operation (cell) and is reset by :meth:`take`.
    """

    def __init__(self, log: SpanLog, strategy_classes):
        self.log = log
        self._classes = sorted(set(strategy_classes), key=lambda c: c.__name__)
        self._patches = _Patches()
        self.plan_ms = 0.0
        self.plan_calls = 0
        self.engine_self_ms = 0.0
        self.engine_calls = 0
        self.transactions = 0
        self.sim_cycles = 0.0
        self.lsu_full_events = 0
        self.key_ms = self.load_ms = self.store_ms = 0.0
        self.lookups = 0
        self.hits = 0
        self.bytes_written = 0
        self.get_result_calls = 0
        self.simulate_cell_calls = 0
        self.attributed_ms = 0.0

    def take(self) -> float:
        """Attributed milliseconds since the last call."""
        value, self.attributed_ms = self.attributed_ms, 0.0
        return value

    def __enter__(self):
        from repro.experiments import diskcache, runner

        tracer = self
        clock = time.perf_counter

        def plan_wrapper(original):
            def plan_batch(strategy, batch, engine):
                start = clock()
                plan = original(strategy, batch, engine)
                tracer.plan_ms += (clock() - start) * 1e3
                tracer.plan_calls += 1
                return plan
            return plan_batch

        def simulate_wrapper(original):
            def simulate_kernel(trace, config, strategy, *args, **kwargs):
                plan_before = tracer.plan_ms
                start = clock()
                result = original(trace, config, strategy, *args, **kwargs)
                dur = (clock() - start) * 1e3
                plan = tracer.plan_ms - plan_before
                tracer.engine_self_ms += dur - plan
                tracer.engine_calls += 1
                tracer.transactions += result.transactions
                tracer.sim_cycles += result.total_cycles
                tracer.lsu_full_events += result.lsu_full_events
                tracer.attributed_ms += dur
                tracer.log.add("simulate_kernel", start, dur,
                               trace=trace.name, gpu=config.name,
                               strategy=strategy.name, plan_ms=plan)
                return result
            return simulate_kernel

        def timed(name, attr, count=None):
            def factory(original):
                def wrapper(*args, **kwargs):
                    start = clock()
                    value = original(*args, **kwargs)
                    dur = (clock() - start) * 1e3
                    setattr(tracer, attr, getattr(tracer, attr) + dur)
                    tracer.attributed_ms += dur
                    if count is not None:
                        count(args, value)
                    tracer.log.add(name, start, dur)
                    return value
                return wrapper
            return factory

        def count_load(_args, value):
            tracer.lookups += 1
            tracer.hits += value is not None

        def count_store(args, _value):
            cache, key = args[0], args[1]
            try:
                tracer.bytes_written += cache.entry_path(key).stat().st_size
            except OSError:
                pass

        def counting(attr):
            def factory(original):
                def wrapper(*args, **kwargs):
                    setattr(tracer, attr, getattr(tracer, attr) + 1)
                    return original(*args, **kwargs)
                return wrapper
            return factory

        for cls in self._classes:
            self._patches.swap(cls, "plan_batch", plan_wrapper)
        self._patches.swap(runner, "simulate_kernel", simulate_wrapper)
        self._patches.swap(diskcache, "result_key",
                           timed("diskcache.result_key", "key_ms"))
        self._patches.swap(diskcache.DiskCache, "load",
                           timed("DiskCache.load", "load_ms", count_load))
        self._patches.swap(diskcache.DiskCache, "store",
                           timed("DiskCache.store", "store_ms", count_store))
        self._patches.swap(runner, "get_result",
                           counting("get_result_calls"))
        self._patches.swap(runner, "simulate_cell",
                           counting("simulate_cell_calls"))
        return self

    def __exit__(self, *exc) -> bool:
        self._patches.restore()
        return False

    def metrics(self) -> dict:
        ns_per_tx = (self.engine_self_ms * 1e6 / self.transactions
                     if self.transactions else 0.0)
        return {
            "strategy.plan_ms": self.plan_ms,
            "strategy.plan_calls": self.plan_calls,
            "engine.self_ms": self.engine_self_ms,
            "engine.calls": self.engine_calls,
            "engine.transactions": self.transactions,
            "engine.ns_per_tx": ns_per_tx,
            "engine.sim_cycles": self.sim_cycles,
            "engine.lsu_full_events": self.lsu_full_events,
            "diskcache.key_ms": self.key_ms,
            "diskcache.load_ms": self.load_ms,
            "diskcache.store_ms": self.store_ms,
            "diskcache.lookups": self.lookups,
            "diskcache.hit_ratio": (self.hits / self.lookups
                                    if self.lookups else 0.0),
            "diskcache.bytes_written": self.bytes_written,
            "runner.memo_hits": max(
                0, self.get_result_calls - self.simulate_cell_calls),
        }


def reference_digests(cells, traces: dict, log: "SpanLog | None" = None,
                      strategies=()) -> "tuple[dict, dict]":
    """Serial ``simulate_kernel`` digest of every distinct
    (workload, GPU, strategy) cell, computed outside any timed phase.

    With a *log*, the computation runs under an :class:`EngineTracer`
    over the classes of *strategies*, and its engine and strategy
    numbers are returned too (else an empty dict).
    """
    from repro.bench.metrics import sim_digest
    from repro.experiments import runner
    from repro.gpu import SIMULATED_GPUS

    def compute():
        # runner.simulate_kernel, looked up per call, so that a tracer's
        # wrapper sees it.
        return {cell: sim_digest(runner.simulate_kernel(
                    traces[cell[0]], SIMULATED_GPUS[cell[1]],
                    runner.make_strategy(cell[2])))
                for cell in sorted(set(cells))}

    if log is None:
        return compute(), {}
    classes = [type(runner.make_strategy(name)) for name in strategies]
    with EngineTracer(log, classes) as tracer:
        digests = compute()
    return digests, {name: value for name, value in tracer.metrics().items()
                     if name.startswith(("engine.", "strategy."))}


def wrap_submit(broker, log: SpanLog, records: dict) -> None:
    """Time ``broker.submit`` per request (an instance attribute, so the
    daemon's own calls go through it too); *records* maps the request's
    client span id to the submit duration in ms."""
    original = broker.submit
    clock = time.perf_counter

    async def submit(request):
        start = clock()
        try:
            return await original(request)
        finally:
            dur = (clock() - start) * 1e3
            records[request.parent_span] = dur
            log.add("Broker.submit", start, dur, client_span=request.parent_span)

    broker.submit = submit


def read_program_spans(path) -> list[dict]:
    """``span`` records from the program's obslog stream."""
    from repro import obslog

    return [event for event in obslog.read_events(path)
            if event.get("event") == "span"]


def read_cache_events(path) -> "tuple[int, int]":
    """(lookups, hits) from the program's ``cache.*`` obslog events."""
    from repro import obslog

    lookups = hits = 0
    for event in obslog.read_events(path):
        name = event.get("event")
        if name in ("cache.hit", "cache.miss"):
            lookups += 1
            hits += name == "cache.hit"
    return lookups, hits
