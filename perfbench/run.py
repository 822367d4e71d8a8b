"""Benchmark driver: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload figures-cold --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``figures-cold``, ``service-open``, ``service-hot`` (see
``perfbench/README.md``).  With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` a separately traced run carries
the per-layer metrics.  Earlier stdout lines hold the run's
timing-independent counts and model outputs.  The process exits
non-zero when an output is wrong or a child process outlives its
shutdown.

Run from the root of a checkout: the program is imported from
``src/`` next to this directory, and every file the run writes lives
under ``.perfbench_tmp/`` there and is removed before exit.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

WORKLOADS = ("figures-cold", "service-open", "service-hot")

#: Units of every metric the driver prints.
UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "cold_start_ms": "ms", "peak_rss_mb": "MiB",
}

#: Every per-layer metric of the traced run.  A workload that does not
#: run a layer (figures-cold has no broker, for instance) reports 0.
LAYER_METRICS = (
    "capture.ms", "capture.batches", "capture.lane_ops",
    "strategy.plan_ms", "strategy.plan_calls",
    "engine.self_ms", "engine.calls", "engine.transactions",
    "engine.ns_per_tx", "engine.sim_cycles", "engine.lsu_full_events",
    "diskcache.key_ms", "diskcache.load_ms", "diskcache.store_ms",
    "diskcache.lookups", "diskcache.hit_ratio", "diskcache.bytes_written",
    "runner.memo_hits",
    "pool.first_response_ms", "pool.dispatch_ms", "worker.execute_ms",
    "supervisor.restarts",
    "broker.admit_ms", "broker.queue_wait_ms_p50", "broker.queue_wait_ms_p99",
    "broker.execute_ms_p50", "broker.requests", "broker.executions",
    "broker.memo_hits", "broker.coalesced", "broker.shed", "broker.degraded",
    "broker.failures", "broker.exec_ratio", "broker.memo_entries",
    "socket.overhead_ms", "socket.reply_bytes",
    "obs.trace_overhead_ratio",
    "latency_p99_ms", "calib.probe_ms", "loadgen.lag_p99_ms",
    "raw.ops_per_s", "raw.latency_p50_ms", "raw.latency_p99_ms",
    "unattributed_ms", "failed_ratio",
)

#: Whole-run watchdog (s): the run must end well inside 180 s.
WATCHDOG_S = 170


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (self-test only; not a benchmark)")
    parser.add_argument("--spans", help="write the traced run's spans "
                                        "(JSONL) to this file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _layer_units(name: str) -> str:
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_ratio"):
        return "1"
    if name == "raw.ops_per_s":
        return "1/s"
    if name == "engine.ns_per_tx":
        return "ns"
    if "bytes" in name:
        return "B"
    if name == "engine.sim_cycles":
        return "cycles"
    return "count"


def _import_program() -> None:
    """Put ``src/`` first on the path and import the program from there.

    Refuses to run against anything else, such as an installed copy,
    so a directory holding only the benchmark fails fast.
    """
    from common import ROOT

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    import repro

    if not os.path.realpath(repro.__file__).startswith(os.path.realpath(src)):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _on_watchdog(signum, frame):
    raise TimeoutError(f"run exceeded the {WATCHDOG_S}s watchdog")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import common
    from spans import SpanLog

    signal.signal(signal.SIGALRM, _on_watchdog)
    signal.alarm(WATCHDOG_S)
    scratch = common.Scratch()
    log = SpanLog()
    stragglers = 0
    try:
        if args.workload == "figures-cold":
            import figures as module
        else:
            import service as module
        module.import_program()
        imports_s = time.perf_counter() - _T0
        out = module.run(args, scratch, imports_s, log)
    finally:
        signal.alarm(0)
        stragglers = common.reap_children()
        common.stop_resource_tracker()
        if args.spans:
            log.write(args.spans)
        scratch.remove()

    failed = out["failed"] + stragglers
    if args.trace:
        measured = {**out["layer"], **out["calib"],
                    "failed_ratio": failed / out["attempted"]}
        unknown = set(measured) - set(LAYER_METRICS)
        if unknown:
            raise RuntimeError(f"undeclared per-layer metrics {unknown}")
        metrics = {name: {"value": measured.get(name, 0),
                          "unit": _layer_units(name)}
                   for name in LAYER_METRICS}
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in out["e2e"].items()}
    print("counts " + json.dumps(out["counts"], sort_keys=True))
    for line in out.get("model", ()):
        print("model output (unvalidated against the paper): " + line)
    print("notes " + json.dumps({**out.get("notes", {}), **out["calib"],
                                 "stragglers": stragglers}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": out["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
