"""Shared infrastructure for the per-figure benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation: it simulates the needed (workload, GPU, strategy) cells
(memoized process-wide by :mod:`repro.experiments.runner`), prints the
rows/series the paper reports, asserts the paper's qualitative shape, and
records the numbers to ``benchmarks/results/*.json`` so EXPERIMENTS.md can
cite them.

Set ``REPRO_BENCH_WORKLOADS`` to a comma-separated key list (e.g.
``3D-LE,NV-BB,PS-SS``) to run a fast subset.

Execution knobs (flag overrides the matching environment variable):

* ``--repro-jobs N`` / ``REPRO_BENCH_JOBS`` -- pre-warm the whole
  experiment matrix across N worker processes before the figure tests
  run, so each test is pure cache lookups;
* ``--repro-no-cache`` / ``REPRO_NO_DISK_CACHE`` -- bypass the
  persistent disk cache (every session then re-simulates from scratch).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments import diskcache
from repro.experiments.runner import (
    STRATEGY_FACTORIES,
    clear_caches,
)
from repro.gpu import SIMULATED_GPUS
from repro.workloads import WORKLOAD_KEYS

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--repro-jobs", type=int,
        default=int(os.environ.get("REPRO_BENCH_JOBS", "1")),
        help="worker processes used to pre-warm the experiment matrix",
    )
    parser.addoption(
        "--repro-no-cache", action="store_true", default=False,
        help="bypass the persistent on-disk simulation cache",
    )


@pytest.fixture(scope="session", autouse=True)
def experiment_execution(request):
    """Configure the cache layers and optionally pre-warm in parallel."""
    if request.config.getoption("--repro-no-cache"):
        diskcache.configure(enabled=False)
    jobs = request.config.getoption("--repro-jobs")
    if jobs > 1:
        from repro.experiments.parallel import run_matrix_parallel
        from repro.obs.metrics import registry

        run_matrix_parallel(
            selected_workloads(),
            list(STRATEGY_FACTORIES),
            list(SIMULATED_GPUS),
            jobs=jobs,
            metrics=registry(),
        )
    yield
    print_lines = []
    if jobs > 1:
        from repro.cli import _metrics_summary_lines

        print_lines.append("\n".join(
            ["pre-warm execution",
             *_metrics_summary_lines(registry().snapshot())]
        ))
    cache = diskcache.active_cache()
    if cache is not None and cache.stats.lookups:
        from repro.experiments.report import format_cache_stats

        print_lines.append(
            format_cache_stats(cache.stats, title=f"cache: {cache.root}")
        )
    for block in print_lines:
        print()
        print(block)


@pytest.fixture
def isolated_simulation_state(tmp_path):
    """Run one isolation-sensitive test against private cache state.

    Figure tests deliberately share memoized cells; tests that mutate
    workload registries or rely on fresh simulation must opt into this
    fixture so nothing leaks in either direction -- including through the
    persistent on-disk layer, which ``clear_caches()`` alone would leave
    warm.  The disk layer is *repointed* at a throwaway directory rather
    than cleared in place: the benchmark harness runs against the real
    persistent cache (that is the warm-start feature), and wiping it as
    a fixture side effect would destroy hours of accumulated state.
    """
    clear_caches()
    with diskcache.isolated(tmp_path / "repro-cache"):
        yield
    clear_caches()


def selected_workloads() -> list[str]:
    """Workload keys under test (full Table 2 set unless overridden)."""
    override = os.environ.get("REPRO_BENCH_WORKLOADS")
    if not override:
        return list(WORKLOAD_KEYS)
    keys = [key.strip() for key in override.split(",") if key.strip()]
    unknown = set(keys) - set(WORKLOAD_KEYS)
    if unknown:
        raise ValueError(f"unknown workload keys: {sorted(unknown)}")
    return keys


@pytest.fixture(scope="session")
def workload_keys() -> list[str]:
    return selected_workloads()


@pytest.fixture(scope="session")
def record():
    """Persist one figure's rows as JSON for EXPERIMENTS.md."""

    def _record(figure: str, payload) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{figure}.json"
        path.write_text(json.dumps(payload, indent=2, default=float) + "\n")

    return _record


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Render a figure's data as an aligned text table."""
    formatted = [
        [f"{cell:.2f}" if isinstance(cell, float) else str(cell)
         for cell in row]
        for row in rows
    ]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in formatted))
        if formatted else len(header[i])
        for i in range(len(header))
    ]
    print(f"\n=== {title} ===")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in formatted:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
