"""Import layering: the worker and service path never load the renderer.

Replaying a captured trace needs only ``core``, ``gpu``, ``trace``,
``obs``, ``experiments`` and ``service``.  The renderer stack
(``repro.render``, ``repro.workloads``) and its heavy third-party
dependencies (scipy, networkx) load only where a workload is built, a
PageRank graph is generated or SSIM is computed.  ``asyncio`` loads only
with the service: the experiment runner and its spawn workers never
need it, the runtime sanitizer included.  These are structural
pins, not timing tests: each import runs in a fresh interpreter (or a
real spawn worker) and the forbidden modules must be absent from
``sys.modules`` afterwards.
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import pytest

from repro.experiments import parallel, runner
from repro.gpu import SIMULATED_GPUS
from repro.obslog import read_events
from repro.trace import coalesced_trace
from repro.trace.io import save_trace

#: Modules a trace-replaying process must never load.
FORBIDDEN = ("repro.workloads", "repro.render", "scipy", "networkx")
#: What a spawn worker must never load: the above, plus the event loop.
WORKER_FORBIDDEN = FORBIDDEN + ("asyncio",)

_SRC = Path(__file__).resolve().parent.parent / "src"


def _loaded_after_import(module: str, watched=FORBIDDEN) -> list[str]:
    """The *watched* modules present after importing *module* in a fresh
    interpreter."""
    script = (
        "import sys\n"
        f"import {module}\n"
        f"print(','.join(m for m in {tuple(watched)!r} if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True,
    )
    return [name for name in out.stdout.strip().split(",") if name]


@pytest.mark.parametrize("module", [
    "repro",
    "repro.experiments.parallel",
    "repro.service",
    "repro.cli",
    "repro.bench.metrics",
])
def test_entry_point_loads_no_renderer_stack(module):
    assert _loaded_after_import(module) == []


def test_experiment_runner_loads_no_asyncio():
    assert _loaded_after_import(
        "repro.experiments.parallel", watched=("asyncio",)
    ) == []


def test_workloads_defer_scipy_and_networkx():
    assert _loaded_after_import(
        "repro.workloads", watched=("scipy", "networkx")
    ) == []


def _forbidden_loaded() -> list[str]:
    """Worker task: the forbidden modules this process has imported."""
    return [name for name in WORKER_FORBIDDEN if name in sys.modules]


def test_spawn_worker_replays_without_renderer_stack(tmp_path, monkeypatch):
    """A spawn worker, with the runtime sanitizer armed so its install
    and record paths run too, replays a trace bit-identically without
    loading the renderer stack or asyncio."""
    from repro.obs import sanitize

    monkeypatch.setenv(sanitize.SANITIZE_ENV, "1")
    monkeypatch.setenv(sanitize.SANITIZE_LOG_ENV,
                       str(tmp_path / "sanitize.jsonl"))
    trace = coalesced_trace(n_batches=200, num_params=4, seed=1,
                            name="layering")
    save_trace(trace, tmp_path / f"{trace.fingerprint}.npz")
    spec = parallel.CellSpec("layering", SIMULATED_GPUS["3060-Sim"],
                             "ARC-HW", trace.fingerprint)
    with ProcessPoolExecutor(
        max_workers=1, mp_context=get_context("spawn"),
        initializer=parallel._worker_init,
        initargs=(str(tmp_path), None, False,
                  parallel.diskcache.engine_fingerprint()),
    ) as pool:
        result = pool.submit(parallel._run_spec, spec, 1).result(timeout=120)
        loaded = pool.submit(_forbidden_loaded).result(timeout=120)
    assert result == runner.simulate_cell(
        trace, spec.gpu, runner.make_strategy(spec.strategy)
    )
    assert loaded == []
    recorded = read_events(tmp_path / "sanitize.jsonl")
    assert any(event["pid"] != os.getpid() for event in recorded), \
        "the armed worker must record its own I/O"


def test_get_workload_builds_a_registry_workload():
    from repro.workloads import Workload

    workload = runner.get_workload("NV-SP")
    assert isinstance(workload, Workload)
    assert workload.key == "NV-SP"
    assert runner.get_workload("NV-SP") is workload
