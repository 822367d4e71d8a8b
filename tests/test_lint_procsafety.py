"""Unit tests for the process-safety analyses behind ARC009-ARC012.

The rule-level verdicts live in ``tests/test_lint_fixtures.py``; these
tests pin the two underlying analyses directly -- the process-context
lattice (:mod:`repro.lint.dataflow.procctx`) and the shared-resource
escape analysis (:mod:`repro.lint.dataflow.resources`) -- on synthetic
mini-trees *and* on the real tree, so a regression is attributable to
the analysis that broke rather than to whichever rule noticed first.

The real-tree expectations double as the static half of the
``REPRO_SANITIZE`` cross-check: ``test_chaos.py`` asserts the protocols
the runtime I/O shim observes are a subset of the model pinned here.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.lint.dataflow import analysis_for
from repro.lint.dataflow.procctx import (
    BOTH,
    PARENT,
    WORKER,
    ProcessContexts,
)
from repro.lint.dataflow.resources import (
    PROTOCOL_APPEND,
    PROTOCOL_ATOMIC_RENAME,
    PROTOCOL_RAW_WRITE,
    SOUND_PROTOCOLS,
    ResourceModel,
)
from repro.lint.engine import (
    LintConfig,
    LintContext,
    collect_files,
    parse_module,
)
from repro.lint.rules.concurrency import _analyses, _scope_modules


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


def build_contexts(tmp_path: Path, files: dict) -> ProcessContexts:
    ctx = build_ctx(tmp_path, files)
    analysis = analysis_for(ctx)
    return ProcessContexts(analysis.table, analysis.graph, ctx.config)


_PIPELINE = {
    "experiments/pipeline.py": (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def _init(value):\n"
        "    pass\n"
        "def _helper(index):\n"
        "    return index * 2\n"
        "def _task(index):\n"
        "    return _helper(index)\n"
        "def _shared(index):\n"
        "    return index\n"
        "def plan(values):\n"
        "    return [_shared(v) for v in values]\n"
        "def run(values):\n"
        "    plan(values)\n"
        "    out = []\n"
        "    with ProcessPoolExecutor(max_workers=2,\n"
        "                             initializer=_init) as pool:\n"
        "        futures = [pool.submit(_task, i) for i in values]\n"
        "        for future in futures:\n"
        "            out.append(future.result(timeout=60))\n"
        "    return [_shared(v) for v in out]\n"
        "def worker_side(index):\n"
        "    return _shared(index)\n"
        "def spawn_proc(values):\n"
        "    import multiprocessing\n"
        "    proc = multiprocessing.Process(target=worker_side)\n"
        "    proc.start()\n"
    ),
}


def test_submit_and_initializer_are_worker_entries(tmp_path):
    contexts = build_contexts(tmp_path, _PIPELINE)
    entries = {q.rsplit(".", 1)[-1] for q in contexts.worker_entries}
    assert entries == {"_task", "_init", "worker_side"}


def test_worker_closure_follows_calls(tmp_path):
    contexts = build_contexts(tmp_path, _PIPELINE)

    def ctx_of(name):
        return contexts.context_of(f"experiments.pipeline.{name}")

    assert ctx_of("_task") == WORKER
    assert ctx_of("_helper") == WORKER  # only reachable from _task
    assert ctx_of("_init") == WORKER
    assert ctx_of("run") == PARENT
    assert ctx_of("plan") == PARENT
    # _shared is called by plan/run (parent) and worker_side (worker).
    assert ctx_of("_shared") == BOTH


def test_unreachable_functions_default_to_parent(tmp_path):
    contexts = build_contexts(tmp_path, {
        "experiments/orphan.py": (
            "def lonely(x):\n"
            "    return x\n"
        ),
    })
    assert contexts.context_of("experiments.orphan.lonely") == PARENT
    assert not contexts.worker_context("experiments.orphan.lonely")


def test_resource_model_classifies_param_and_alias(tmp_path):
    ctx = build_ctx(tmp_path, {
        "experiments/store.py": (
            "import os\n"
            "import tempfile\n"
            "def commit(entry_path, payload):\n"
            "    target = entry_path\n"
            "    fd, tmp = tempfile.mkstemp(dir=target.parent)\n"
            "    with os.fdopen(fd, 'w') as handle:\n"
            "        handle.write(payload)\n"
            "    os.replace(tmp, target)\n"
            "def read_back(entry_path):\n"
            "    with open(entry_path) as handle:\n"
            "        return handle.read()\n"
        ),
    })
    analysis = analysis_for(ctx)
    model = ResourceModel(
        analysis.table, analysis.graph, ctx.config, _scope_modules(ctx)
    )
    writes = model.writes()
    assert [(w.resource, w.protocol) for w in writes] == [
        ("cache-results", PROTOCOL_ATOMIC_RENAME),
    ]
    reads = [a for a in model.accesses if a.kind == "read"]
    assert [(r.resource, r.function.rsplit(".", 1)[-1]) for r in reads] == [
        ("cache-results", "read_back"),
    ]


def test_resource_model_propagates_through_returns_and_args(tmp_path):
    ctx = build_ctx(tmp_path, {
        "experiments/paths.py": (
            "from pathlib import Path\n"
            "def entry_path(results_dir, key):\n"
            "    return Path(results_dir) / key\n"
        ),
        "experiments/writer.py": (
            "from experiments.paths import entry_path\n"
            "def corrupt(path):\n"
            "    path.write_bytes(b'x')\n"
            "def smash(root, key):\n"
            "    corrupt(entry_path(root, key))\n"
        ),
    })
    analysis = analysis_for(ctx)
    model = ResourceModel(
        analysis.table, analysis.graph, ctx.config, _scope_modules(ctx)
    )
    # entry_path's results_dir param seeds the class, the return summary
    # carries it to smash's call site, and one level of param
    # propagation attributes corrupt()'s write_bytes to the class.
    assert model.returns["experiments.paths.entry_path"] == "cache-results"
    writes = model.writes()
    assert [(w.function.rsplit('.', 1)[-1], w.resource, w.protocol)
            for w in writes] == [
        ("corrupt", "cache-results", PROTOCOL_RAW_WRITE),
    ]


def test_class_context_seeds_self_paths(tmp_path):
    ctx = build_ctx(tmp_path, {
        "experiments/journal.py": (
            "import os\n"
            "class RunManifest:\n"
            "    def __init__(self, path):\n"
            "        self.path = path\n"
            "    def record(self, line):\n"
            "        fd = os.open(self.path,\n"
            "                     os.O_WRONLY | os.O_CREAT | os.O_APPEND)\n"
            "        try:\n"
            "            os.write(fd, line.encode('utf-8'))\n"
            "        finally:\n"
            "            os.close(fd)\n"
        ),
    })
    analysis = analysis_for(ctx)
    model = ResourceModel(
        analysis.table, analysis.graph, ctx.config, _scope_modules(ctx)
    )
    # 'self.path' carries no pattern, but the enclosing class name does.
    assert [(w.resource, w.protocol) for w in model.writes()] == [
        ("manifest", PROTOCOL_APPEND),
    ]


# --------------------------------------------------------------------- #
# Real-tree expectations: the static model the sanitizer cross-checks
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
    _, contexts, _ = _analyses(ctx)

    def ctx_of(qname):
        return contexts.context_of(f"repro.experiments.{qname}")

    assert ctx_of("parallel._run_spec") == WORKER
    assert ctx_of("parallel._worker_init") == WORKER
    assert ctx_of("parallel._worker_trace") == WORKER
    assert ctx_of("faults.mark_worker") == WORKER
    assert ctx_of("parallel.run_matrix_parallel") == PARENT
    assert ctx_of("parallel._fallback_spec") == PARENT
    # Fault hooks and the cache run on both sides of the pool.
    assert ctx_of("faults.on_attempt") == BOTH
    assert ctx_of("faults.active_plan") == BOTH
    assert ctx_of("runner.simulate_cell") == BOTH
    assert ctx_of("diskcache.configure") == BOTH


def test_real_tree_protocol_model():
    """The static (resource -> protocols) model of the shipped tree.

    This is the model the REPRO_SANITIZE I/O shim diffs runtime
    observations against; pinning it here means an unmodeled writer
    fails *this* suite even before the chaos cross-check runs.
    """
    ctx = real_tree_ctx()
    _, _, resources = _analyses(ctx)
    model = {
        resource: set(protocols)
        for resource, protocols in resources.protocol_model().items()
    }
    assert model == {
        "cache-results": {PROTOCOL_ATOMIC_RENAME, PROTOCOL_RAW_WRITE},
        "cache-quarantine": {PROTOCOL_ATOMIC_RENAME},
        "manifest": {PROTOCOL_APPEND},
        "obslog": {PROTOCOL_APPEND},
    }
    # The single unsound writer is the fault injector's deliberate torn
    # write (suppressed ARC009); everything else is sound.
    unsound = [
        access for access in resources.writes()
        if access.protocol not in SOUND_PROTOCOLS
    ]
    assert [(a.module_path, a.function.rsplit(".", 1)[-1])
            for a in unsound] == [
        ("experiments/faults.py", "corrupt_entry"),
    ]
