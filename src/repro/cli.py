"""Command-line interface: ``python -m repro <command>``.

Thin wrappers over the library for the common one-off questions:

* ``list``       -- available workloads, strategies and GPUs.
* ``profile``    -- a workload's atomic-trace characteristics (Obs. 1/2).
* ``simulate``   -- speedup table of strategies on one workload.
* ``timeline``   -- summarize a saved telemetry timeline file.
* ``train``      -- train a workload's model and report loss/PSNR.
* ``breakdown``  -- training-time phase breakdown (Figure 4).
* ``tune``       -- balancing-threshold sweep (§5.5.3 / Figure 23).
* ``serve``      -- run the simulation service daemon (or query a
  running one with ``--status`` / ``--stop``).
* ``request``    -- submit one simulation request to a running daemon.
* ``cache``      -- inspect or clear the persistent simulation cache.

``simulate`` accepts ``--jobs N`` to fan cells across worker processes
(default from ``REPRO_JOBS``) and ``--no-cache`` to bypass the
persistent disk cache; both paths are bit-identical to a serial
uncached run.  Parallel runs are fault tolerant (retries, per-cell
timeouts via ``REPRO_CELL_TIMEOUT``, pool-crash recovery) and resume
from the disk cache: a rerun simulates only the cells it lacks.  They
print after the table how many cells the parent loaded from the disk
cache and how many went to the pool, then the broker's metrics summary.

Observability: ``simulate --timeline out.json`` saves a per-strategy
telemetry timeline, ``profile --perfetto out.trace.json`` writes a
Perfetto-loadable Chrome trace, and ``timeline <file>`` summarizes a
saved timeline (peak LSU occupancy, saturation fractions, hottest
slots).  ``--format json`` on ``simulate``/``profile`` emits
machine-readable results; ``--log FILE`` streams structured JSONL run
events (cells, cache, retries) and ``-v``/``REPRO_LOG_LEVEL`` raise
stderr diagnostic verbosity.

Commands import the simulation stack lazily, when they run.
"""

from __future__ import annotations

import argparse
import sys

from repro import obslog
from repro.obslog import console

__all__ = ["main"]

_DEFAULT_STRATEGIES = (
    "baseline", "ARC-HW", "ARC-SW-B-8", "ARC-SW-S-8", "CCCL",
    "LAB", "LAB-ideal", "PHI",
)


def load_workload(key):
    """Late-bound :func:`repro.workloads.load_workload`.

    A module-level name (rather than a local import in each command) so
    tests can monkeypatch ``repro.cli.load_workload``.
    """
    from repro.workloads import load_workload as _load_workload

    return _load_workload(key)


def _add_workload_arg(parser: argparse.ArgumentParser) -> None:
    from repro.workloads import WORKLOAD_KEYS

    parser.add_argument(
        "--workload", "-w", default="3D-LE", choices=WORKLOAD_KEYS,
        help="Table 2 workload key (default: 3D-LE)",
    )


def _add_gpu_arg(parser: argparse.ArgumentParser) -> None:
    from repro.gpu import SIMULATED_GPUS

    parser.add_argument(
        "--gpu", "-g", default="3060-Sim", choices=sorted(SIMULATED_GPUS),
        help="simulated GPU (default: 3060-Sim)",
    )


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    """``-v`` / ``--log``: shared by the simulation-stack subcommands."""
    parser.add_argument(
        "--verbose", "-v", action="count", default=0,
        help="raise stderr diagnostic verbosity (-v info, -vv debug; "
             "REPRO_LOG_LEVEL overrides)",
    )
    parser.add_argument(
        "--log", metavar="FILE", default=None,
        help="append structured JSONL run events (cells, cache, "
             "retries) to FILE; worker processes share the stream",
    )


def _positive_int(text: str) -> int:
    """argparse type for worker counts: a friendly error, not a
    traceback, on ``--jobs 0`` / ``--jobs -3`` / ``--jobs many``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: expected a positive integer"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: must be a positive integer"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ARC (ASPLOS 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, strategies and GPUs")

    profile = sub.add_parser(
        "profile", help="atomic-trace characteristics of a workload"
    )
    _add_workload_arg(profile)
    _add_gpu_arg(profile)
    profile.add_argument(
        "--strategy", default="baseline", metavar="NAME",
        help="strategy simulated for --perfetto / the JSON stall report "
             "(default: baseline)",
    )
    profile.add_argument(
        "--perfetto", metavar="FILE", default=None,
        help="simulate the workload and write a Perfetto-loadable "
             "Chrome trace-event JSON timeline to FILE",
    )
    profile.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json: trace profile + stall report)",
    )
    _add_observability_args(profile)

    simulate = sub.add_parser(
        "simulate", help="compare atomic strategies on one workload"
    )
    _add_workload_arg(simulate)
    _add_gpu_arg(simulate)
    simulate.add_argument(
        "--strategies", "-s", nargs="+", default=list(_DEFAULT_STRATEGIES),
        metavar="NAME", help="strategy names (see `repro list`)",
    )
    simulate.add_argument(
        "--jobs", "-j", type=_positive_int, default=None, metavar="N",
        help="simulate strategies across N worker processes "
             "(default: $REPRO_JOBS, else 1)",
    )
    simulate.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent on-disk simulation cache",
    )
    simulate.add_argument(
        "--timeline", metavar="FILE", default=None,
        help="save a telemetry timeline (.json or .npz) per strategy; "
             "with several strategies the name gains a strategy infix",
    )
    simulate.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (json: one SimResult.to_dict() per strategy)",
    )
    _add_observability_args(simulate)

    timeline = sub.add_parser(
        "timeline", help="summarize a saved telemetry timeline file"
    )
    timeline.add_argument(
        "file", metavar="FILE",
        help="timeline written by `simulate --timeline` (.json or .npz)",
    )
    timeline.add_argument(
        "--top", type=_positive_int, default=5, metavar="K",
        help="how many hottest address slots to report (default: 5)",
    )
    timeline.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )
    _add_observability_args(timeline)

    train = sub.add_parser("train", help="train a workload's model")
    _add_workload_arg(train)
    train.add_argument("--iterations", "-n", type=int, default=50)

    breakdown = sub.add_parser(
        "breakdown", help="training-time phase breakdown (Figure 4)"
    )
    _add_workload_arg(breakdown)
    _add_gpu_arg(breakdown)

    tune = sub.add_parser(
        "tune", help="balancing-threshold sweep (Figure 23)"
    )
    _add_workload_arg(tune)
    _add_gpu_arg(tune)
    tune.add_argument("--variant", choices=("B", "S"), default="B")

    serve = sub.add_parser(
        "serve",
        help="run the simulation service daemon on a unix socket "
             "(--status / --stop talk to a running one)",
    )
    serve.add_argument(
        "--socket", metavar="PATH", default=None,
        help="unix socket path (default: REPRO_SERVICE_SOCKET or a "
             "per-user path under the temp dir)",
    )
    serve.add_argument(
        "--jobs", "-j", type=_positive_int, default=None, metavar="N",
        help="worker processes in the persistent pool "
             "(default: REPRO_JOBS or 2)",
    )
    serve.add_argument(
        "--queue-depth", type=_positive_int, default=16, metavar="N",
        help="admission queue bound; requests beyond it are shed "
             "(default: 16)",
    )
    serve.add_argument(
        "--concurrency", type=_positive_int, default=None, metavar="N",
        help="concurrent dispatches from the queue (default: --jobs)",
    )
    serve.add_argument(
        "--breaker-threshold", type=_positive_int, default=3, metavar="N",
        help="consecutive pool failures that trip the circuit breaker "
             "(default: 3)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt cell timeout (default: REPRO_CELL_TIMEOUT)",
    )
    serve.add_argument(
        "--metrics-port", type=_positive_int, default=None, metavar="PORT",
        help="serve Prometheus text exposition on 127.0.0.1:PORT "
             "(scrape with any HTTP client)",
    )
    serve.add_argument(
        "--status", action="store_true",
        help="print a running daemon's snapshot and exit",
    )
    serve.add_argument(
        "--stop", action="store_true",
        help="ask a running daemon to drain and shut down, then exit",
    )
    serve.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="--status output format (default: text)",
    )
    _add_observability_args(serve)

    request = sub.add_parser(
        "request",
        help="submit one simulation request to a running `repro serve` "
             "daemon (--op metrics/status for introspection)",
    )
    _add_workload_arg(request)
    _add_gpu_arg(request)
    request.add_argument(
        "--op", choices=("simulate", "status", "metrics"),
        default="simulate",
        help="daemon operation (default: simulate; metrics/status need "
             "no workload)",
    )
    request.add_argument(
        "--watch", action="store_true",
        help="with --op metrics: redraw a live service summary until "
             "interrupted (a `repro top`)",
    )
    request.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="--watch refresh period (default: 2.0)",
    )
    request.add_argument(
        "--strategy", "-s", default="baseline", metavar="NAME",
        help="strategy to simulate (default: baseline)",
    )
    request.add_argument(
        "--socket", metavar="PATH", default=None,
        help="daemon socket path (default: REPRO_SERVICE_SOCKET or the "
             "per-user default)",
    )
    request.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="fail the request (exit 4) if no result arrives in time",
    )
    request.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="client-side socket timeout (default: 300)",
    )
    request.add_argument(
        "--format", choices=("text", "json", "prom"), default="text",
        help="output format (default: text; prom prints Prometheus "
             "text exposition, --op metrics only)",
    )
    _add_observability_args(request)

    trace = sub.add_parser(
        "trace",
        help="stitch one traced request's wall-clock spans (client -> "
             "broker -> worker) with re-captured engine phase spans "
             "into a Perfetto timeline",
    )
    trace.add_argument(
        "obslog", metavar="OBSLOG",
        help="obslog JSONL file the request was traced into "
             "(repro serve --log / REPRO_OBSLOG)",
    )
    trace.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="trace to stitch (default: the trace with the most spans; "
             "--list shows candidates)",
    )
    trace.add_argument(
        "--list", action="store_true",
        help="list trace ids found in the obslog and exit",
    )
    trace.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the stitched Chrome trace-event JSON here "
             "(load in https://ui.perfetto.dev)",
    )
    trace.add_argument(
        "--no-engine", action="store_true",
        help="skip re-simulating the traced cell for engine phase "
             "spans (wall-clock spans only)",
    )
    trace.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout format (default: text span tree)",
    )
    _add_observability_args(trace)

    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent simulation cache"
    )
    cache.add_argument(
        "--clear", action="store_true", help="delete every cached result"
    )
    return parser


def _cmd_list() -> int:
    from repro.experiments.runner import STRATEGY_FACTORIES
    from repro.gpu import SIMULATED_GPUS
    from repro.workloads import WORKLOAD_KEYS

    print("Workloads (Table 2):")
    for key in WORKLOAD_KEYS:
        workload = load_workload(key)
        print(f"  {key:<6} {workload.app:<10} {workload.dataset}")
    print("\nStrategies:")
    for name in STRATEGY_FACTORIES:
        print(f"  {name}")
    print("\nGPUs (Table 1):")
    for gpu in SIMULATED_GPUS.values():
        print(f"  {gpu.name:<9} {gpu.num_sms} SMs, {gpu.num_rops} ROPs, "
              f"{gpu.clock_ghz} GHz")
    return 0


def _cmd_profile(args) -> int:
    import json

    from repro.trace.analysis import profile_trace

    workload = load_workload(args.workload)
    trace = workload.capture_trace()
    profile = profile_trace(trace)

    needs_simulation = args.perfetto is not None or args.format == "json"
    result = None
    if needs_simulation:
        from repro.experiments.runner import make_strategy
        from repro.gpu import SIMULATED_GPUS, Telemetry, simulate_kernel

        gpu = SIMULATED_GPUS[args.gpu]
        telemetry = Telemetry()
        result = simulate_kernel(
            trace, gpu, make_strategy(args.strategy), telemetry=telemetry
        )
        if args.perfetto is not None:
            from repro.profiling import to_chrome_trace

            with open(args.perfetto, "w") as handle:
                json.dump(to_chrome_trace(telemetry), handle)

    if args.format == "json":
        from repro.profiling import stall_report

        report = stall_report(result)
        print(json.dumps({
            "profile": {
                "name": profile.name,
                "n_batches": profile.n_batches,
                "num_params": profile.num_params,
                "lane_ops": profile.lane_ops,
                "locality": profile.locality,
                "mean_active": profile.mean_active,
                "mean_groups": profile.mean_groups,
                "histogram": profile.histogram.tolist(),
            },
            "stall_report": {
                "workload": report.workload,
                "gpu": report.gpu,
                "strategy": report.strategy,
                "stalls_per_instruction": report.stalls_per_instruction,
                "breakdown": report.breakdown,
            },
        }, indent=2, sort_keys=True))
        return 0

    print(profile)
    print(f"  intra-warp locality (Obs. 1): {profile.locality:.1%}")
    print(f"  mean active lanes   (Obs. 2): {profile.mean_active:.1f} / 32")
    if args.perfetto is not None:
        print(f"perfetto trace written: {args.perfetto} "
              "(open at https://ui.perfetto.dev)")
    return 0


def _cmd_simulate(args) -> int:
    from repro.experiments import diskcache
    from repro.experiments.report import format_cache_stats, format_table
    from repro.experiments.runner import (
        STRATEGY_FACTORIES,
        get_result,
        seed_trace,
    )
    from repro.gpu import SIMULATED_GPUS

    unknown = [s for s in args.strategies if s not in STRATEGY_FACTORIES]
    if unknown:
        print(f"unknown strategies: {unknown}", file=sys.stderr)
        return 2
    if args.no_cache:
        diskcache.configure(enabled=False)
    gpu = SIMULATED_GPUS[args.gpu]
    trace = load_workload(args.workload).capture_trace()
    seed_trace(args.workload, trace)
    from repro.experiments.parallel import default_jobs

    jobs = args.jobs if args.jobs is not None else default_jobs(fallback=1)
    execution = None
    if jobs > 1:
        # Fan the cells out through the broker; results land in the
        # in-memory cache so the table assembly below is pure lookups.
        from repro.experiments.parallel import run_matrix_parallel
        from repro.obs.metrics import MetricsRegistry
        from repro.service.broker import STAT_COUNTERS
        from repro.service.request import RequestFailed

        # This run's broker counters only, however many runs the process
        # has made.
        metrics = MetricsRegistry()
        cache = diskcache.active_cache()
        hits_before = cache.stats.hits if cache is not None else 0
        try:
            cells = run_matrix_parallel(
                [args.workload], list(args.strategies), [args.gpu],
                jobs=jobs, metrics=metrics,
            )
        except RequestFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            for line in _metrics_summary_lines(metrics.snapshot()):
                print(line, file=sys.stderr)
            return 1
        # Cells the parent loaded from the disk cache, and cells the
        # broker was asked for: the pool's own cache lookups happen in
        # the workers, which count into their own registries.
        loaded = (cache.stats.hits if cache is not None else 0) - hits_before
        requests = metrics.get(STAT_COUNTERS["requests"][0])
        pooled = requests.total() if requests is not None else 0
        execution = (f"execution: {len(cells)} cells, {jobs} jobs, "
                     f"{loaded} from the disk cache, {pooled} to the pool")
    rows = []
    results = {}
    skipped = []
    baseline = None
    for name in args.strategies:
        if "SW-B" in name and not trace.bfly_eligible:
            rows.append([name, "-", "-", "- (divergent kernel)"])
            skipped.append(name)
            continue
        result = get_result(args.workload, args.gpu, name)
        results[name] = result
        if baseline is None or name == "baseline":
            baseline = baseline or result
        rows.append(
            [name, f"{result.total_cycles:,.0f}",
             f"{result.rop_ops:,}",
             f"{result.speedup_over(baseline):.2f}x"]
        )

    timeline_paths = {}
    if args.timeline is not None:
        from repro.experiments.runner import make_strategy
        from repro.profiling import capture_timeline, save_timeline

        for name in results:
            path = _timeline_path(args.timeline, name,
                                  multiple=len(results) > 1)
            save_timeline(
                capture_timeline(trace, gpu, make_strategy(name)), path
            )
            timeline_paths[name] = path

    if args.format == "json":
        import json

        print(json.dumps({
            "workload": args.workload,
            "gpu": gpu.name,
            "results": [results[name].to_dict() for name in results],
            "skipped": skipped,
            "timelines": timeline_paths,
        }, indent=2, sort_keys=True))
        return 0

    print(format_table(
        ["strategy", "cycles", "ROP ops", "speedup"], rows,
        title=f"{args.workload} gradient kernel on {gpu.name}",
    ))
    for name, path in timeline_paths.items():
        console.info("timeline written: %s [%s]", path, name)
    if execution is not None:
        console.info("")
        console.info(execution)
        for line in _metrics_summary_lines(metrics.snapshot()):
            console.info(line)
    cache = diskcache.active_cache()
    if cache is not None and cache.stats.lookups:
        console.info("")
        console.info(
            format_cache_stats(cache.stats, title=f"cache: {cache.root}")
        )
    return 0


def _timeline_path(base: str, strategy: str, multiple: bool) -> str:
    """Where one strategy's timeline lands for ``--timeline base``.

    A single-strategy run writes exactly *base*; a multi-strategy run
    inserts the strategy name before the suffix so files don't clobber.
    """
    if not multiple:
        return base
    root, dot, suffix = base.rpartition(".")
    if not dot:
        return f"{base}.{strategy}"
    return f"{root}.{strategy}.{suffix}"


def _cmd_timeline(args) -> int:
    import json

    from repro.profiling import load_timeline, summarize_timeline

    try:
        telemetry = load_timeline(args.file)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read timeline {args.file!r}: {exc}",
              file=sys.stderr)
        return 2
    summary = summarize_timeline(telemetry, top_k=args.top)
    if args.format == "json":
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"{summary.trace_name} on {summary.gpu} [{summary.strategy}]: "
          f"{summary.total_cycles:,.0f} cycles")
    saturated = " (saturated)" if summary.lsu_saturated else ""
    print(f"  peak LSU occupancy: {summary.peak_lsu_occupancy} / "
          f"{summary.lsu_queue_depth} entries{saturated}, "
          f"{summary.lsu_full_events:,} full events")
    print(f"  peak ROP busy:      {summary.peak_rop_busy} / "
          f"{summary.rops_per_partition} units in one partition")
    print("  saturated time:     " + ", ".join(
        f"{name} {fraction:.1%}"
        for name, fraction in summary.saturated_frac.items()
    ))
    print(f"  interconnect util:  {summary.interconnect_utilization:.1%}")
    if summary.hot_slots:
        print(f"  hottest slots (top {len(summary.hot_slots)}):")
        for slot, busy, ops in summary.hot_slots:
            print(f"    slot {int(slot):>6}: {busy:,.0f} busy cycles, "
                  f"{int(ops):,} ROP ops")
    return 0


def _cmd_train(args) -> int:

    workload = load_workload(args.workload)
    report = workload.train(iterations=args.iterations)
    print(f"{args.workload}: {report.iterations} iterations in "
          f"{report.wall_seconds:.1f}s")
    print(f"  loss {report.losses[0]:.4f} -> {report.final_loss:.4f}")
    print(f"  PSNR {report.psnr_start:.2f} dB -> {report.psnr_end:.2f} dB")
    return 0


def _cmd_breakdown(args) -> int:
    from repro.gpu import SIMULATED_GPUS
    from repro.profiling import training_breakdown

    workload = load_workload(args.workload)
    trace = workload.capture_trace()
    pairs, pixels = workload.forward_stats()
    phases = training_breakdown(
        trace, forward_pairs=pairs, n_pixels=pixels,
        config=SIMULATED_GPUS[args.gpu], launches=workload.trace_views,
        loss_channel_cycles=workload.loss_channel_cycles,
    )
    fractions = phases.fractions
    print(f"{args.workload} on {args.gpu} (one training iteration):")
    for phase in ("forward", "loss", "grad"):
        print(f"  {phase:<8} {fractions[phase]:6.1%}")
    return 0


def _cmd_tune(args) -> int:
    from repro.core.autotune import tune_threshold
    from repro.experiments.report import format_table
    from repro.gpu import SIMULATED_GPUS

    workload = load_workload(args.workload)
    trace = workload.capture_trace()
    if args.variant == "B" and not trace.bfly_eligible:
        print(f"{args.workload} cannot use SW-B (divergent kernel); "
              "use --variant S", file=sys.stderr)
        return 2
    best, timings = tune_threshold(
        trace, SIMULATED_GPUS[args.gpu], variant=args.variant,
        candidates=(0, 4, 8, 12, 16, 20, 24, 32),
    )
    rows = [
        [f"X={x}", f"{cycles:,.0f}", "<- best" if x == best else ""]
        for x, cycles in timings.items()
    ]
    print(format_table(
        ["threshold", "cycles", ""], rows,
        title=f"SW-{args.variant} threshold sweep, "
              f"{args.workload} on {args.gpu}",
    ))
    return 0


def _cmd_cache(args) -> int:
    from repro.experiments import diskcache

    cache = diskcache.active_cache()
    if cache is None:
        print("disk cache disabled "
              f"({diskcache.NO_CACHE_ENV} is set)")
        return 0
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} cached results from {cache.root}")
        return 0
    entries = cache.entries()
    quarantined = cache.quarantined_entries()
    print(f"location: {cache.root}")
    print(f"  (override with {diskcache.CACHE_DIR_ENV}, "
          f"disable with {diskcache.NO_CACHE_ENV}=1)")
    print(f"entries:  {len(entries)}")
    print(f"size:     {cache.size_bytes():,} bytes")
    if quarantined:
        print(f"quarantined: {len(quarantined)} corrupt entr(ies) "
              f"preserved under {cache.quarantine_dir}")
    if cache.swept_temp_files:
        print(f"swept: {cache.swept_temp_files} orphaned writer temp "
              f"file(s) older than {diskcache.sweep_age_seconds():,.0f}s "
              f"(tune with {diskcache.SWEEP_AGE_ENV})")
    return 0


#: Session counters on the ``requests`` line of ``repro serve --status``
#: and ``repro top``.
_REQUEST_LINE_STATS = ("requests", "admitted", "coalesced", "memo_hits",
                       "shed", "degraded", "completed")


def _cmd_serve(args) -> int:
    import json

    from repro.service import daemon as svc_daemon

    socket_path = args.socket
    if args.status or args.stop:
        op = "shutdown" if args.stop else "status"
        try:
            reply = svc_daemon.call({"op": op}, socket_path=socket_path)
        except OSError as exc:
            print(f"error: cannot reach daemon at "
                  f"{svc_daemon.default_socket_path() if socket_path is None else socket_path}: "
                  f"{exc}", file=sys.stderr)
            return 2
        if args.stop:
            print("daemon stopping (draining in-flight requests)")
            return 0
        snapshot = reply.get("snapshot", {})
        if args.format == "json":
            print(json.dumps(snapshot, indent=2, sort_keys=True))
            return 0
        stats = snapshot.get("stats", {})
        sup = snapshot.get("supervisor", {})
        breaker = sup.get("breaker", {})
        print(f"pool:      jobs={snapshot.get('jobs')} "
              f"restarts={sup.get('restarts', 0)}")
        queue = snapshot.get("queue", {})
        print(f"queue:     {queue.get('size')}/{queue.get('depth')} "
              f"(inflight {snapshot.get('inflight')}, "
              f"memoized {snapshot.get('memoized')})")
        print(f"breaker:   {breaker.get('state')} "
              f"(trips {breaker.get('trips_total', 0)})")
        print("requests:  "
              + " ".join(f"{k}={stats.get(k, 0)}"
                         for k in _REQUEST_LINE_STATS))
        return 0

    import asyncio
    from dataclasses import replace as dc_replace

    from repro.experiments.parallel import default_jobs
    from repro.experiments.resilience import RetryPolicy
    from repro.service import Broker, CircuitBreaker, ServiceDaemon

    from repro.obs import metrics as obsmetrics
    from repro.obs import tracing

    jobs = args.jobs if args.jobs is not None else default_jobs(fallback=2)
    policy = RetryPolicy.from_env()
    if args.timeout is not None:
        policy = dc_replace(policy, timeout=args.timeout)
    # Session root context exported *before* the broker builds its pool
    # (spawn workers snapshot env at construction): worker cell.execute
    # spans parent here, per-request context rides the JSON protocol.
    tracing.arm_session()
    broker = Broker(
        jobs=jobs,
        queue_depth=args.queue_depth,
        concurrency=args.concurrency,
        policy=policy,
        breaker=CircuitBreaker(threshold=args.breaker_threshold),
        # The process-wide registry, so the endpoint also exposes the
        # cache and retry families those layers report there.
        metrics=obsmetrics.registry(),
    )
    daemon = ServiceDaemon(broker, socket_path=socket_path,
                           metrics_port=args.metrics_port)
    console.info("serving on %s (jobs=%d, queue depth %d); "
                 "stop with `repro serve --stop` or Ctrl-C",
                 daemon.socket_path, jobs, args.queue_depth)
    asyncio.run(daemon.run())
    return 0


def _unreachable(args, svc_daemon, exc) -> int:
    print(f"error: cannot reach daemon at "
          f"{svc_daemon.default_socket_path() if args.socket is None else args.socket}: "
          f"{exc}", file=sys.stderr)
    return 2


def _metrics_summary_lines(snapshot: dict) -> "list[str]":
    """Compact `repro top` view of a daemon metrics snapshot.

    It has no disk-cache line: pool workers count their cache lookups
    in their own registries, which no process printing this sees.
    """
    from repro.service.broker import STAT_COUNTERS

    def value(name, default=0.0, **labels):
        entry = snapshot.get(name)
        if not entry:
            return default
        want = {str(k): str(v) for k, v in labels.items()}
        for series in entry.get("series", []):
            if {str(k): str(v)
                    for k, v in series.get("labels", {}).items()} == want:
                return series.get("value", series.get("count", default))
        return default

    def total(name):
        entry = snapshot.get(name)
        if not entry:
            return 0.0
        return sum(s.get("value", s.get("count", 0.0))
                   for s in entry.get("series", []))

    breaker_names = {0: "closed", 1: "half-open", 2: "open"}
    breaker = breaker_names.get(
        int(value("repro_service_breaker_state")), "?")
    lines = [
        "requests   "
        + " ".join(f"{key}={int(total(STAT_COUNTERS[key][0]))}"
                   for key in _REQUEST_LINE_STATS),
        f"queue      {int(value('repro_service_queue_size'))}"
        f"/{int(value('repro_service_queue_depth'))}"
        f"  inflight {int(value('repro_service_inflight'))}",
        f"pool       breaker={breaker}"
        f" trips={int(total('repro_service_breaker_trips_total'))}"
        f" restarts={int(total('repro_service_pool_restarts_total'))}",
        "attempts   "
        + (" ".join(
            f"{s['labels'].get('outcome')}={int(s['value'])}"
            for s in snapshot.get("repro_service_attempts_total",
                                  {}).get("series", [])
        ) or "none"),
    ]
    lat = snapshot.get("repro_service_request_latency_seconds")
    if lat and lat.get("series"):
        series = lat["series"][0]
        count = series.get("count", 0)
        mean = series.get("sum", 0.0) / count * 1000.0 if count else 0.0
        lines.append(f"latency    n={int(count)} mean={mean:.1f} ms")
    return lines


def _request_introspect(args) -> int:
    """``repro request --op status|metrics`` (optionally ``--watch``)."""
    import json
    import time

    from repro.service import daemon as svc_daemon

    while True:
        try:
            reply = svc_daemon.call(
                {"op": args.op}, socket_path=args.socket,
                timeout=args.timeout,
            )
        except OSError as exc:
            return _unreachable(args, svc_daemon, exc)
        if reply.get("status") != "ok":
            print(f"{reply.get('status')}: {reply.get('error')}",
                  file=sys.stderr)
            return 1
        if args.op == "status":
            print(json.dumps(reply.get("snapshot", {}), indent=2,
                             sort_keys=True))
        elif args.format == "json":
            print(json.dumps(reply.get("metrics", {}), indent=2,
                             sort_keys=True))
        elif args.format == "prom":
            sys.stdout.write(reply.get("exposition", ""))
        else:
            if args.watch and sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")
            for line in _metrics_summary_lines(reply.get("metrics", {})):
                print(line)
        if not args.watch:
            return 0
        sys.stdout.flush()
        try:
            time.sleep(max(args.interval, 0.1))
        except KeyboardInterrupt:
            return 0


def _cmd_request(args) -> int:
    import json

    from repro.obs.tracing import Span
    from repro.service import daemon as svc_daemon

    if args.op != "simulate":
        return _request_introspect(args)

    # The client originates the trace: its span context travels in-band
    # on the simulate op, and the daemon's svc.request span joins it --
    # one trace from this process into the broker.  The span record
    # lands in whatever obslog sink this process has armed (--log /
    # REPRO_OBSLOG), which is the daemon's stream when they share it.
    client_span = Span("client.request", role="client",
                       workload=args.workload, gpu=args.gpu,
                       strategy=args.strategy)
    payload = {
        "op": "simulate",
        "workload": args.workload,
        "gpu": args.gpu,
        "strategy": args.strategy,
        "trace": client_span.context.to_dict(),
    }
    if args.deadline is not None:
        payload["deadline"] = args.deadline
    try:
        reply = svc_daemon.call(
            payload, socket_path=args.socket, timeout=args.timeout
        )
    except OSError as exc:
        client_span.end(status="error", error="unreachable")
        return _unreachable(args, svc_daemon, exc)
    status = reply.get("status")
    client_span.end(status=status)
    if args.format == "json":
        print(json.dumps(reply, indent=2, sort_keys=True))
    elif status == "ok":
        result = reply.get("result", {})
        line = (f"{reply.get('cell')}: "
                f"{result.get('total_cycles', 0.0):,.0f} cycles "
                f"(source {reply.get('source')}, "
                f"{reply.get('latency_ms', 0.0):.1f} ms)")
        if reply.get("coalesced"):
            line += " [coalesced]"
        print(line)
    else:
        print(f"{status}: {reply.get('error')}", file=sys.stderr)
    if status == "ok":
        return 0
    if status == "shed":
        return 3
    if status == "deadline":
        return 4
    return 1


def _trace_engine_telemetry(spans):
    """Re-capture engine telemetry for the traced cell, or None.

    The simulation is deterministic, so re-running the traced
    ``workload|gpu|strategy`` cell reproduces the exact engine phase
    spans the worker executed -- no sim-time telemetry has to ride the
    obslog for the stitched view to be faithful."""
    cell = next(
        (s.get("cell") for s in spans
         if s.get("cell") and s.get("name") in (
             "svc.execute", "cell.execute", "svc.request")),
        None,
    )
    if not cell or str(cell).count("|") != 2:
        return None, None
    workload, gpu_name, strategy_name = str(cell).split("|")
    try:
        from repro.experiments.runner import make_strategy
        from repro.gpu import SIMULATED_GPUS
        from repro.profiling import capture_timeline

        trace = load_workload(workload).capture_trace()
        telemetry = capture_timeline(
            trace, SIMULATED_GPUS[gpu_name], make_strategy(strategy_name)
        )
    except (KeyError, ValueError) as exc:
        print(f"warning: cannot re-simulate cell {cell!r} for engine "
              f"spans: {exc}", file=sys.stderr)
        return None, cell
    return telemetry, cell


def _print_span_tree(spans) -> None:
    """Indented parent->child listing of one trace's spans."""
    children: "dict[str | None, list[dict]]" = {}
    ids = {s["span_id"] for s in spans}
    for span in spans:
        parent = span.get("parent_id")
        children.setdefault(parent if parent in ids else None,
                            []).append(span)

    def walk(parent, depth):
        for span in children.get(parent, []):
            attrs = " ".join(
                f"{key}={span[key]}"
                for key in ("role", "outcome", "status", "source", "cell",
                            "attempt", "fanout")
                if key in span
            )
            print(f"  {'  ' * depth}{span['name']:<{24 - 2 * depth}} "
                  f"{span['dur_ms']:>9.3f} ms  {attrs}")
            walk(span["span_id"], depth + 1)

    walk(None, 0)


def _cmd_trace(args) -> int:
    import json

    from repro import obslog
    from repro.profiling import (
        service_trace_ids,
        spans_from_obslog,
        stitch_service_trace,
    )

    try:
        events = obslog.read_events(args.obslog)
    except OSError as exc:
        print(f"error: cannot read obslog {args.obslog!r}: {exc}",
              file=sys.stderr)
        return 2
    spans = spans_from_obslog(events)
    if args.list:
        counts: "dict[str, int]" = {}
        for span in spans:
            counts[span["trace_id"]] = counts.get(span["trace_id"], 0) + 1
        for tid in service_trace_ids(events):
            print(f"{tid}  {counts[tid]} spans")
        return 0
    if not spans:
        print(f"error: no span records in {args.obslog!r} "
              "(was the request made with `repro request`?)",
              file=sys.stderr)
        return 2

    trace_id = args.trace_id
    if trace_id is not None and not any(
            s["trace_id"] == trace_id for s in spans):
        print(f"error: no spans for trace {trace_id!r} "
              "(see --list)", file=sys.stderr)
        return 2

    telemetry = None
    if not args.no_engine:
        selected = [s for s in spans
                    if trace_id is None or s["trace_id"] == trace_id]
        telemetry, _cell = _trace_engine_telemetry(selected or spans)

    stitched = stitch_service_trace(events, trace_id=trace_id,
                                    telemetry=telemetry)
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump(stitched, handle)
        print(f"stitched trace written: {args.out} "
              "(open at https://ui.perfetto.dev)")

    if args.format == "json":
        print(json.dumps(stitched, indent=2, sort_keys=True))
        return 0
    meta = stitched.get("otherData", {})
    shown = meta.get("trace_id", "?")
    own = [s for s in spans if s["trace_id"] == shown]
    engine_events = sum(
        1 for e in stitched.get("traceEvents", [])
        if e.get("pid") != 100 and e.get("ph") != "M"
    )
    print(f"trace {shown}: {len(own)} wall-clock spans, "
          f"{engine_events} engine events")
    _print_span_tree(own)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse *argv* (default ``sys.argv``) and run the chosen command."""
    args = _build_parser().parse_args(argv)
    obslog.setup_logging(getattr(args, "verbose", 0))
    previous_sink = None
    sink_set = getattr(args, "log", None) is not None
    if sink_set:
        previous_sink = obslog.set_obslog_path(args.log)
        obslog.emit("cli.start", command=args.command)
    handlers = {
        "list": lambda: _cmd_list(),
        "profile": lambda: _cmd_profile(args),
        "simulate": lambda: _cmd_simulate(args),
        "timeline": lambda: _cmd_timeline(args),
        "train": lambda: _cmd_train(args),
        "breakdown": lambda: _cmd_breakdown(args),
        "tune": lambda: _cmd_tune(args),
        "serve": lambda: _cmd_serve(args),
        "request": lambda: _cmd_request(args),
        "trace": lambda: _cmd_trace(args),
        "cache": lambda: _cmd_cache(args),
    }
    try:
        return handlers[args.command]()
    finally:
        if sink_set:
            obslog.emit("cli.finish", command=args.command)
            obslog.set_obslog_path(previous_sink)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
