"""Chaos suite: fault-injected proofs of the execution layer's contract.

Every recovery path of :mod:`repro.experiments.resilience` is driven by
a deterministic fault plan (:mod:`repro.experiments.faults`) and held to
the repo's core invariant: recovery never changes results.  The
acceptance proofs:

* **chaos determinism** -- a parallel sweep suffering a worker crash, a
  hang past the per-cell timeout and a corrupted cache entry is
  bit-identical to a clean serial run, and a warm rerun quarantines the
  corrupt entry instead of serving or deleting it;
* **resume** -- a run interrupted after K of N cells re-simulates only
  the N-K remainder (asserted via the RunReport and the manifest);
* **clean Ctrl-C** -- an interrupt shuts the pool down with
  ``cancel_futures``, and every completed cell is already seeded in the
  caches and journaled in the manifest;
* **bounded retries and graceful degradation** -- transient errors are
  retried with deterministic backoff, exhausted cells fall back to
  in-process execution, and only a cell that fails *that too* raises.

The pool-driving tests spawn real worker processes; the unit tests at
the bottom cover the plan/policy/manifest primitives in-process.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments import diskcache, faults, runner
from repro.experiments import parallel
from repro.experiments.faults import FaultPlan, FaultSpec, InjectedFault
from repro.experiments.manifest import RunManifest, run_key
from repro.experiments.parallel import plan_cells, run_matrix_parallel
from repro.experiments.resilience import (
    CellExecutionError,
    RetryPolicy,
    RunReport,
)
from repro.experiments.runner import clear_caches, run_matrix
from repro.gpu import SIMULATED_GPUS
from repro.trace import coalesced_trace, scattered_trace

WORKLOADS = ["P1", "P2"]
STRATEGIES = ["baseline", "ARC-HW"]
GPUS = ["3060-Sim"]
N_CELLS = 4

CRASH_CELL = "P1|3060-Sim|baseline"
CORRUPT_CELL = "P1|3060-Sim|ARC-HW"
HANG_CELL = "P2|3060-Sim|ARC-HW"


class FakeWorkload:
    """Deterministic synthetic stand-in for a Table 2 workload."""

    def __init__(self, key, bfly=True):
        self.key = key
        self._bfly = bfly

    def capture_trace(self):
        factory = coalesced_trace if self._bfly else scattered_trace
        return factory(n_batches=300, num_params=4, seed=11, name=self.key)


@pytest.fixture
def fake_registry(monkeypatch):
    fakes = {"P1": FakeWorkload("P1"), "P2": FakeWorkload("P2", bfly=False)}
    monkeypatch.setattr(runner, "load_workload", lambda key: fakes[key])
    return fakes


@pytest.fixture(autouse=True)
def clean_fault_plan():
    """No fault plan leaks into or out of any test (incl. REPRO_FAULTS)."""
    faults.configure(None)
    yield
    faults.configure(None)


def cell_tuples(cells):
    return [
        (c.workload, c.gpu, c.strategy, c.result.to_dict()) for c in cells
    ]


def chaos_policy(timeout=None):
    """Fast-retry policy so injected faults resolve in test time."""
    return RetryPolicy(
        max_attempts=3, timeout=timeout,
        backoff_base=0.01, backoff_max=0.05,
    )


def serial_baseline(tmp_path, workloads=WORKLOADS):
    """Clean, uncached serial truth; leaves a fresh enabled disk cache."""
    diskcache.configure(enabled=False)
    serial = run_matrix(workloads, STRATEGIES, GPUS)
    clear_caches()
    diskcache.configure(root=tmp_path / "chaos-cache", enabled=True)
    return serial


# --------------------------------------------------------------------- #
# Acceptance proofs
# --------------------------------------------------------------------- #


def test_chaos_run_is_bit_identical_to_clean_serial(fake_registry, tmp_path):
    """One crash, one hang past the timeout, one corrupted cache entry:
    the parallel sweep still matches clean serial bit for bit, and the
    corruption is quarantined (never deleted) on the warm rerun."""
    serial = serial_baseline(tmp_path)
    assert len(serial) == N_CELLS

    faults.configure(FaultPlan((
        FaultSpec(cell=CRASH_CELL, kind="crash"),
        FaultSpec(cell=HANG_CELL, kind="hang", times=2, seconds=20.0),
        FaultSpec(cell=CORRUPT_CELL, kind="corrupt-cache", times=3),
    )))
    report = RunReport()
    chaotic = run_matrix_parallel(
        WORKLOADS, STRATEGIES, GPUS, jobs=2,
        policy=chaos_policy(timeout=3.0), report=report,
    )
    assert cell_tuples(chaotic) == cell_tuples(serial)
    assert report.crashes >= 1
    assert report.timeouts >= 1
    assert report.pool_restarts >= 2
    assert all(
        cell.source in ("worker", "serial-fallback") for cell in report.cells
    )

    # Warm rerun: the corrupt entry is a quarantined miss, everything
    # else comes straight from disk, and the results are unchanged.
    faults.configure(None)
    clear_caches()
    cache = diskcache.active_cache()
    warm = run_matrix(WORKLOADS, STRATEGIES, GPUS)
    assert cell_tuples(warm) == cell_tuples(serial)
    assert cache.stats.quarantined == 1
    quarantined = cache.quarantined_entries()
    assert quarantined, "corrupt entry must be preserved, not deleted"
    corrupt_key = diskcache.result_key(
        SIMULATED_GPUS["3060-Sim"],
        runner.get_trace("P1"),
        runner.make_strategy("ARC-HW"),
    )
    assert any(path.name.startswith(corrupt_key) for path in quarantined)


def test_interrupted_run_resumes_without_resimulating(fake_registry,
                                                      tmp_path):
    """Interrupt after K of N cells; the rerun re-simulates only N-K."""
    serial = serial_baseline(tmp_path)
    faults.configure(FaultPlan((
        FaultSpec(cell=CRASH_CELL, kind="interrupt"),
    )))
    report = RunReport()
    with pytest.raises(KeyboardInterrupt):
        run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                            policy=chaos_policy(), report=report)
    assert report.interrupted

    cache = diskcache.active_cache()
    manifest_paths = list((cache.root / "manifests").glob("*.jsonl"))
    assert len(manifest_paths) == 1, "interrupt must leave the journal"
    finished = RunManifest(manifest_paths[0]).load()
    completed_before = len(finished)
    assert 1 <= completed_before <= N_CELLS

    faults.configure(None)
    clear_caches()
    resumed_report = RunReport()
    resumed = run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                                  policy=chaos_policy(),
                                  report=resumed_report)
    assert cell_tuples(resumed) == cell_tuples(serial)
    assert resumed_report.resumed == completed_before
    assert resumed_report.simulated == N_CELLS - completed_before
    assert not list((cache.root / "manifests").glob("*.jsonl")), \
        "a completed run must discard its journal"


def test_interrupt_shuts_pool_down_cleanly(fake_registry, tmp_path,
                                           monkeypatch):
    """Ctrl-C cancels queued futures and loses no completed work: the
    finished cells are seeded in memory, on disk, and in the manifest."""
    serial_baseline(tmp_path)
    shutdowns = []

    class SpyPool(ProcessPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            shutdowns.append({"wait": wait, "cancel_futures": cancel_futures})
            return super().shutdown(wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", SpyPool)
    faults.configure(FaultPlan((
        FaultSpec(cell=CRASH_CELL, kind="interrupt"),
    )))
    report = RunReport()
    with pytest.raises(KeyboardInterrupt):
        run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                            policy=chaos_policy(), report=report)
    assert {"wait": False, "cancel_futures": True} in shutdowns

    # The interrupted cell completed first: journaled under its
    # content-address key, entry on disk, and seeded into memory.
    cache = diskcache.active_cache()
    key = diskcache.result_key(
        SIMULATED_GPUS["3060-Sim"],
        runner.get_trace("P1"),
        runner.make_strategy("baseline"),
    )
    manifest_paths = list((cache.root / "manifests").glob("*.jsonl"))
    assert manifest_paths
    assert key in RunManifest(manifest_paths[0]).load()
    assert cache.entry_path(key).exists()

    monkeypatch.setattr(
        runner, "simulate_kernel",
        lambda *a, **k: pytest.fail("completed cell must be seeded"),
    )
    diskcache.configure(enabled=False)  # memory layer alone must serve it
    result = runner.get_result("P1", "3060-Sim", "baseline")
    assert result.total_cycles > 0


def test_transient_errors_retry_then_degrade_to_serial(fake_registry,
                                                       tmp_path):
    """Bounded retries recover a flaky cell; an exhausted cell falls
    back in-process -- both with results identical to clean serial."""
    serial = serial_baseline(tmp_path, workloads=["P1"])
    faults.configure(FaultPlan((
        FaultSpec(cell="P1|3060-Sim|baseline", kind="error", times=2),
        FaultSpec(cell="P1|3060-Sim|ARC-HW", kind="error", times=3),
    )))
    report = RunReport()
    cells = run_matrix_parallel(["P1"], STRATEGIES, GPUS, jobs=2,
                                policy=chaos_policy(), report=report)
    assert cell_tuples(cells) == cell_tuples(serial)

    by_cell = {cell.cell: cell for cell in report.cells}
    flaky = by_cell["P1|3060-Sim|baseline"]
    assert [r.outcome for r in flaky.attempts] == ["error", "error", "ok"]
    assert flaky.source == "worker"
    assert "InjectedFault" in flaky.attempts[0].error

    exhausted = by_cell["P1|3060-Sim|ARC-HW"]
    assert [r.outcome for r in exhausted.attempts] == (
        ["error"] * 3 + ["ok"]
    )
    assert exhausted.source == "serial-fallback"
    assert report.fallbacks == 1
    assert report.retries >= 4


def test_cell_failing_even_the_fallback_raises(fake_registry, tmp_path):
    serial_baseline(tmp_path, workloads=["P1"])
    faults.configure(FaultPlan((
        FaultSpec(cell="P1|3060-Sim|baseline", kind="error", times=10),
    )))
    report = RunReport()
    with pytest.raises(CellExecutionError) as excinfo:
        run_matrix_parallel(["P1"], ["baseline"], GPUS, jobs=2,
                            policy=chaos_policy(), report=report)
    assert excinfo.value.cell == "P1|3060-Sim|baseline"
    attempts = excinfo.value.report.cells[0].attempts
    assert attempts[-1].outcome == "fallback-error"
    assert len(attempts) == 4  # 3 worker attempts + the fallback


# --------------------------------------------------------------------- #
# Fault-plan primitives
# --------------------------------------------------------------------- #


def test_fault_plan_round_trips_through_env(monkeypatch):
    plan = FaultPlan((
        FaultSpec(cell="a|g|s", kind="crash"),
        FaultSpec(cell="b|g|s", kind="hang", times=2, seconds=1.5),
    ))
    assert FaultPlan.from_json(plan.to_json()) == plan

    faults.configure(plan)
    assert json.loads(
        __import__("os").environ[faults.FAULTS_ENV]
    ) == json.loads(plan.to_json())
    # A fresh process would read the plan back from the environment.
    monkeypatch.setattr(faults, "_plan", None)
    assert faults.active_plan() == plan
    faults.configure(None)
    assert faults.FAULTS_ENV not in __import__("os").environ
    assert faults.active_plan() is None


def test_fault_plan_accepts_bare_list_shorthand():
    """A hand-typed REPRO_FAULTS is usually a plain JSON list; it parses
    the same as the canonical {"faults": [...]} wrapper."""
    wrapped = FaultPlan.from_json(
        '{"faults": [{"cell": "a|g|s", "kind": "error", "times": 2}]}'
    )
    bare = FaultPlan.from_json(
        '[{"cell": "a|g|s", "kind": "error", "times": 2}]'
    )
    assert bare == wrapped
    assert bare.specs[0].times == 2


def test_fault_spec_validation_and_matching():
    with pytest.raises(ValueError):
        FaultSpec(cell="a|g|s", kind="meteor-strike")
    with pytest.raises(ValueError):
        FaultSpec(cell="a|g|s", kind="crash", times=0)
    spec = FaultSpec(cell="a|g|s", kind="error", times=2)
    assert spec.matches("a|g|s", "error", 1)
    assert spec.matches("a|g|s", "error", 2)
    assert not spec.matches("a|g|s", "error", 3)
    assert not spec.matches("a|g|s", "crash", 1)
    assert not spec.matches("b|g|s", "error", 1)
    assert faults.cell_id("w", "g", "s") == "w|g|s"


def test_error_faults_fire_in_parent_but_crash_and_hang_do_not(
    monkeypatch,
):
    """In the parent (serial fallback), crash/hang are suppressed --
    firing them there would turn a recoverable fault into run loss."""
    monkeypatch.setattr(faults, "_in_worker", False)
    faults.configure(FaultPlan((
        FaultSpec(cell="a|g|s", kind="crash"),
        FaultSpec(cell="a|g|s", kind="hang", seconds=60.0),
        FaultSpec(cell="b|g|s", kind="error"),
    )))
    faults.on_attempt("a|g|s", 1)  # would exit or sleep 60s in a worker
    with pytest.raises(InjectedFault):
        faults.on_attempt("b|g|s", 1)


def test_corrupt_entry_truncates_in_place(tmp_path):
    path = tmp_path / "entry.json"
    path.write_bytes(b"0123456789abcdef")
    assert faults.corrupt_entry(path)
    assert path.read_bytes() == b"01234567"
    assert not faults.corrupt_entry(tmp_path / "absent.json")


# --------------------------------------------------------------------- #
# Retry policy
# --------------------------------------------------------------------- #


def test_retry_delay_is_deterministic_and_bounded():
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                         backoff_max=10.0, jitter=0.5)
    d2 = policy.delay("cell-key", 2)
    assert d2 == policy.delay("cell-key", 2)  # no RNG anywhere
    assert 0.075 <= d2 <= 0.125  # base 0.1 +/- 25%
    assert policy.delay("cell-key", 2) != policy.delay("other-key", 2)

    exact = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                        backoff_max=0.3, jitter=0.0)
    assert exact.delay("k", 2) == pytest.approx(0.1)
    assert exact.delay("k", 3) == pytest.approx(0.2)
    assert exact.delay("k", 9) == pytest.approx(0.3)  # capped


def test_retry_policy_validation_and_env(monkeypatch):
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=2.0)

    monkeypatch.setenv("REPRO_MAX_ATTEMPTS", "5")
    monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
    policy = RetryPolicy.from_env()
    assert policy.max_attempts == 5
    assert policy.timeout == 2.5

    monkeypatch.setenv("REPRO_MAX_ATTEMPTS", "banana")
    monkeypatch.setenv("REPRO_CELL_TIMEOUT", "-3")
    policy = RetryPolicy.from_env()
    assert policy.max_attempts == 3  # defaults survive bogus values
    assert policy.timeout is None


# --------------------------------------------------------------------- #
# Run manifest
# --------------------------------------------------------------------- #


def test_run_key_depends_on_cell_order_and_content():
    assert run_key(["a", "b"]) == run_key(["a", "b"])
    assert run_key(["a", "b"]) != run_key(["b", "a"])
    assert run_key(["a", "b"]) != run_key(["a", "b", "c"])


def test_manifest_records_survive_torn_and_foreign_lines(tmp_path):
    manifest = RunManifest.for_run(tmp_path / "manifests", ["k1", "k2"])
    assert manifest.load() == {}
    manifest.record("k1", {"workload": "P1"})
    manifest.record("k2", {"workload": "P2"})
    with open(manifest.path, "a", encoding="utf-8") as handle:
        handle.write('{"format": 99, "key": "k3"}\n')  # foreign version
        handle.write('{"format": 1, "key": "k4"')  # torn trailing append

    records = manifest.load()
    assert sorted(records) == ["k1", "k2"]
    assert records["k1"]["cell"] == {"workload": "P1"}

    manifest.discard()
    assert not manifest.path.exists()
    manifest.discard()  # idempotent


# --------------------------------------------------------------------- #
# Worker error paths
# --------------------------------------------------------------------- #


def test_worker_trace_errors_name_workload_and_spool(tmp_path,
                                                     monkeypatch):
    spec = parallel.CellSpec("NV-SP", SIMULATED_GPUS["3060-Sim"],
                             "baseline", "f" * 64)
    monkeypatch.setattr(parallel, "_worker_trace_dir", None)
    monkeypatch.setattr(parallel, "_worker_traces", {})
    with pytest.raises(RuntimeError, match="_worker_init"):
        parallel._worker_trace(spec)

    monkeypatch.setattr(parallel, "_worker_trace_dir", tmp_path)
    with pytest.raises(FileNotFoundError) as excinfo:
        parallel._worker_trace(spec)
    message = str(excinfo.value)
    assert "'NV-SP'" in message
    assert str(tmp_path / f"{'f' * 64}.npz") in message


def test_cell_spec_identity_matches_fault_addressing(fake_registry):
    specs = plan_cells(["P1"], ["baseline"], GPUS)
    assert [spec.cell_id for spec in specs] == ["P1|3060-Sim|baseline"]


# --------------------------------------------------------------------- #
# Runtime cross-check of the static process-safety model (REPRO_SANITIZE)
# --------------------------------------------------------------------- #


def _static_write_model():
    """(resource, protocol) pairs the lint escape analysis derives for
    the shipped tree -- the model ARC009/ARC012 reason about."""
    from pathlib import Path

    import repro
    from repro.lint.engine import (
        LintConfig,
        LintContext,
        collect_files,
        parse_module,
    )
    from repro.lint.rules.concurrency import _analyses

    root = Path(repro.__file__).parent
    modules = []
    for path, file_root in collect_files([root]):
        module, error = parse_module(path, file_root)
        if error is None:
            modules.append(module)
    _, _, resources = _analyses(LintContext(LintConfig(), modules))
    return {(a.resource, a.protocol) for a in resources.writes()}


def test_iosan_observations_match_static_model(fake_registry, tmp_path,
                                               monkeypatch):
    """The REPRO_SANITIZE I/O shim records every shared-file access a
    faulted parallel run performs, across parent and spawned workers;
    folding those observations into (resource, protocol) pairs must
    reproduce the static model exactly.  An unmodeled runtime writer
    (analysis unsoundness) or a modeled-but-never-exercised protocol
    both fail here."""
    from repro.experiments import iosan

    serial_baseline(tmp_path)
    log_path = tmp_path / "iosan.jsonl"
    obslog_path = tmp_path / "obslog.jsonl"
    monkeypatch.setenv(iosan.SANITIZE_ENV, "1")
    monkeypatch.setenv(iosan.IOSAN_LOG_ENV, str(log_path))
    monkeypatch.setenv("REPRO_OBSLOG", str(obslog_path))
    faults.configure(FaultPlan((
        FaultSpec(cell=CORRUPT_CELL, kind="corrupt-cache", times=3),
    )))
    assert iosan.maybe_install(), "shim must arm when both env vars set"
    try:
        run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                            policy=chaos_policy())
        # Warm rerun quarantines the corrupt entry, exercising the
        # quarantine resource class' atomic-rename writer too.
        faults.configure(None)
        clear_caches()
        warm = run_matrix(WORKLOADS, STRATEGIES, GPUS)
    finally:
        iosan.uninstall()
    assert not iosan.installed()
    assert len(warm) == N_CELLS

    cache = diskcache.active_cache()
    assert cache.stats.quarantined == 1
    events = iosan.read_log(log_path)
    assert events, "armed shim must record I/O"
    assert len({event["pid"] for event in events}) >= 2, \
        "spawned workers must install their own shim via _worker_init"

    observed = iosan.observed_protocols(
        events, cache.root, str(obslog_path)
    )
    static = _static_write_model()
    unexplained = observed - static
    assert not unexplained, (
        "runtime writes the static process-safety model does not "
        f"explain (analysis unsoundness): {sorted(unexplained)}"
    )
    # The injected torn write is the one unsound protocol in the model
    # (the suppressed ARC009 in faults.corrupt_entry) -- the shim must
    # see it happen for real.
    assert ("cache-results", iosan.PROTOCOL_RAW_WRITE) in observed
    # And the faulted run + quarantining rerun exercise every modeled
    # writer, so observed and static coincide exactly.
    assert observed == static


def test_iosan_clean_run_uses_only_sound_protocols(fake_registry, tmp_path,
                                                   monkeypatch):
    """Without fault injection, every recorded shared-file write follows
    a sound protocol: the raw-write pair is the fault injector's doing,
    not the production stack's."""
    from repro.experiments import iosan

    serial_baseline(tmp_path)
    log_path = tmp_path / "iosan.jsonl"
    monkeypatch.setenv(iosan.SANITIZE_ENV, "1")
    monkeypatch.setenv(iosan.IOSAN_LOG_ENV, str(log_path))
    assert iosan.maybe_install()
    try:
        run_matrix_parallel(WORKLOADS, STRATEGIES, GPUS, jobs=2,
                            policy=chaos_policy())
    finally:
        iosan.uninstall()

    cache = diskcache.active_cache()
    observed = iosan.observed_protocols(
        iosan.read_log(log_path), cache.root
    )
    sound = {iosan.PROTOCOL_ATOMIC_RENAME, iosan.PROTOCOL_APPEND}
    unsound = {pair for pair in observed if pair[1] not in sound}
    assert not unsound, f"clean run performed unsound writes: {unsound}"
    assert ("cache-results", iosan.PROTOCOL_ATOMIC_RENAME) in observed
    assert ("manifest", iosan.PROTOCOL_APPEND) in observed
