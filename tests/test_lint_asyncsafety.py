"""Unit tests for the coroutine-context analysis behind ARC013-ARC016.

The rule-level verdicts live in ``tests/test_lint_fixtures.py``; these
tests pin the underlying analysis directly -- the async-reachability
lattice, escape hatches and blocking-effect fixpoint of
:mod:`repro.lint.dataflow.asyncctx` -- on synthetic mini-trees *and* on
the real tree, so a regression is attributable to the analysis that
broke rather than to whichever rule noticed first.

The real-tree expectations double as the static half of the
``REPRO_SANITIZE`` loop-stall cross-check: ``tests/test_loopsan.py``
asserts the blocking frames the runtime shim observes are a subset of
the model pinned here.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.lint import run_lint
from repro.lint.dataflow import analysis_for
from repro.lint.dataflow.asyncctx import (
    BOTH,
    CORO,
    SYNC,
    AsyncContexts,
)
from repro.lint.engine import (
    LintConfig,
    LintContext,
    collect_files,
    parse_module,
)
from repro.lint.rules.asyncsafety import _analyses


def build_ctx(tmp_path: Path, files: dict) -> LintContext:
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    modules = []
    for path, root in collect_files([tmp_path]):
        module, error = parse_module(path, root)
        assert error is None, f"fixture does not parse: {error}"
        modules.append(module)
    return LintContext(LintConfig(), modules)


def build_contexts(tmp_path: Path, files: dict) -> AsyncContexts:
    ctx = build_ctx(tmp_path, files)
    analysis = analysis_for(ctx)
    return AsyncContexts(analysis.table, analysis.graph, ctx.config)


_SERVICE = {
    "service/gateway.py": (
        "import asyncio\n"
        "import time\n"
        "def shared_helper(x):\n"
        "    return x + 1\n"
        "def coro_only_helper(x):\n"
        "    return shared_helper(x)\n"
        "def blocking_helper(path):\n"
        "    return path.read_text()\n"
        "def escaped_blocker():\n"
        "    time.sleep(1.0)\n"
        "async def admit(request):\n"
        "    coro_only_helper(request)\n"
        "    await asyncio.to_thread(escaped_blocker)\n"
        "    return request\n"
        "def cli_entry(values):\n"
        "    return [shared_helper(v) for v in values]\n"
    ),
}


def test_lattice_sync_coro_both(tmp_path):
    contexts = build_contexts(tmp_path, _SERVICE)

    def ctx_of(name):
        return contexts.context_of(f"service.gateway.{name}")

    assert ctx_of("admit") == CORO
    assert ctx_of("coro_only_helper") == CORO
    assert ctx_of("shared_helper") == BOTH
    assert ctx_of("cli_entry") == SYNC
    assert ctx_of("blocking_helper") == SYNC


def test_escape_hatch_is_not_coroutine_context(tmp_path):
    contexts = build_contexts(tmp_path, _SERVICE)
    qname = "service.gateway.escaped_blocker"
    assert qname in contexts.escapes
    assert "to_thread" in contexts.escapes[qname]
    assert contexts.context_of(qname) == SYNC
    # It still *has* a blocking effect -- it is just never on the loop.
    assert qname in contexts.effects
    assert qname not in contexts.blocking_model()


def test_blocking_effect_propagates_through_sync_calls(tmp_path):
    contexts = build_contexts(tmp_path, {
        "service/chain.py": (
            "def primitive(path):\n"
            "    return open(path).read()\n"
            "def middle(path):\n"
            "    return primitive(path)\n"
            "async def top(path):\n"
            "    return middle(path)\n"
        ),
    })
    effect = contexts.effects["service.chain.middle"]
    assert effect.origin == "service.chain.primitive"
    assert "open" in effect.reason
    model = contexts.blocking_model()
    assert "service.chain.top" in model
    assert "service.chain.middle" in model
    assert "service.chain.primitive" in model


def test_async_boundary_stops_effect_propagation(tmp_path):
    contexts = build_contexts(tmp_path, {
        "service/bounded.py": (
            "import time\n"
            "async def slow_child():\n"
            "    time.sleep(1.0)\n"
            "def parent():\n"
            "    return slow_child()\n"
        ),
    })
    # Calling an async def only instantiates it: parent has no effect,
    # while the child keeps its own (and is judged as a coroutine root).
    assert "service.bounded.parent" not in contexts.effects
    assert "service.bounded.slow_child" in contexts.effects


def test_future_result_hint_classifies(tmp_path):
    contexts = build_contexts(tmp_path, {
        "service/waiting.py": (
            "async def reap(cell_future):\n"
            "    return cell_future.result()\n"
        ),
    })
    effect = contexts.effects["service.waiting.reap"]
    assert ".result()" in effect.reason


def test_await_unwraps_in_unit_interpreter(tmp_path):
    """ARC003 sees through ``await``: an awaited cycles-valued call
    added to a nanosecond binding is still a unit conflict."""
    report = run_lint([_write_tree(tmp_path, {
        "core/mod.py": (
            "async def wait_cycles(n):\n"
            "    return n\n"
            "async def total(a_ns, b):\n"
            "    return a_ns + await wait_cycles(b)\n"
        ),
    })])
    assert "ARC003" in {finding.rule for finding in report.new}


def _write_tree(root: Path, files: dict) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


# --------------------------------------------------------------------- #
# Real-tree expectations: the static model loopsan cross-checks
# --------------------------------------------------------------------- #


def real_tree_ctx() -> LintContext:
    root = Path(repro.__file__).parent
    modules = []
    for path, file_root in collect_files([root]):
        module, error = parse_module(path, file_root)
        if error is None:
            modules.append(module)
    return LintContext(LintConfig(), modules)


def test_real_tree_contexts():
    ctx = real_tree_ctx()
    _, contexts = _analyses(ctx)

    assert contexts.context_of("repro.service.broker.Broker.submit") \
        == CORO
    assert contexts.context_of(
        "repro.service.broker.Broker._dispatch_loop") == CORO
    # The socket client is sync by design: no coroutine ever calls it.
    assert contexts.context_of("repro.service.daemon.call") == SYNC
    # Escape hatches: the pool task and probe run off the loop.
    assert "repro.experiments.parallel._run_spec" in contexts.escapes
    assert "repro.service.supervisor._pool_probe" in contexts.escapes
    assert contexts.context_of(
        "repro.service.supervisor._pool_probe") == SYNC


def test_real_tree_blocking_model():
    """The static coroutine-blocking model of the shipped tree.

    This is the model the REPRO_SANITIZE loop shim diffs runtime
    observations against; pinning the load-bearing members here means
    an unmodeled blocker fails *this* suite even before the chaos
    cross-check runs.
    """
    ctx = real_tree_ctx()
    _, contexts = _analyses(ctx)
    model = contexts.blocking_model()
    # Every deliberate (suppressed or allowlisted) blocker is modeled:
    expected = {
        "repro.obslog.emit",
        "repro.experiments.manifest.RunManifest.record",
        "repro.experiments.manifest.RunManifest.load",
        "repro.experiments.diskcache.engine_fingerprint",
        "repro.experiments.diskcache.result_key",
        "repro.experiments.diskcache.DiskCache.load",
        "repro.experiments.faults.on_admission",
        "repro.trace.io.save_trace",
        "repro.service.broker.Broker.submit",
        "repro.service.broker.Broker._ensure_spooled",
        "repro.service.broker.Broker._recover_from_journal",
    }
    assert expected <= model, sorted(expected - model)
    # And the loop-only plumbing stays out of it:
    for qname in (
        "repro.service.daemon.call",
        "repro.service.daemon.ServiceDaemon._handle",
        "repro.obslog.read_events",
        "repro.obs.sanitize.maybe_install",
        "repro.obs.sanitize.arm_loop",
    ):
        assert qname not in model, qname


def test_real_tree_spool_effect_originates_in_save_trace():
    ctx = real_tree_ctx()
    _, contexts = _analyses(ctx)
    effect = contexts.effects[
        "repro.service.broker.Broker._ensure_spooled"
    ]
    assert effect.origin == "repro.trace.io.save_trace"
    assert "savez" in effect.reason


def test_live_tree_lints_clean_with_deliberate_suppressions():
    """The shipped tree carries no new ARC013-016 findings, and every
    deliberate blocker is visible as an inline-justified suppression --
    including the loop-block chaos hook the runtime cross-check fires."""
    report = run_lint([Path(repro.__file__).parent])
    async_new = [f for f in report.new
                 if f.rule in ("ARC013", "ARC014", "ARC015", "ARC016")]
    assert async_new == [], [
        f"{f.path}:{f.line} {f.rule} {f.message}" for f in async_new
    ]
    suppressed = [f for f in report.suppressed if f.rule == "ARC013"]
    assert any("on_admission" in f.message for f in suppressed), (
        "the deliberate loop-block fault hook must stay visible as a "
        "suppressed ARC013 finding"
    )
    assert any("save_trace" in f.message for f in suppressed)


def test_sarif_carries_async_safety_category(tmp_path):
    from repro.lint.sarif import report_to_sarif

    report = run_lint([_write_tree(tmp_path, {
        "service/gateway.py": (
            "import time\n"
            "async def admit(request):\n"
            "    time.sleep(0.01)\n"
        ),
    })])
    sarif = report_to_sarif(report)
    run = sarif["runs"][0]
    rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
    assert rules["ARC013"]["properties"]["category"] == "async-safety"
    assert rules["ARC016"]["properties"]["category"] == "async-safety"
    results = [r for r in run["results"] if r["ruleId"] == "ARC013"]
    assert results, "ARC013 finding must appear in SARIF results"
