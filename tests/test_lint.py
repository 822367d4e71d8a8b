"""Tests for arclint (:mod:`repro.lint`).

Each rule gets at least one positive fixture (a tiny tree seeded with the
violation) and one negative (the compliant spelling of the same code).
The suppression and baseline machinery are exercised through both the
library API and the ``repro lint`` CLI, and a meta-test asserts the live
tree is clean against the checked-in baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import load_baseline, run_lint, write_baseline
from repro.lint.findings import Finding, Severity

REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = REPO_ROOT / "src" / "repro"
REPO_BASELINE = REPO_ROOT / ".arclint-baseline.json"


def make_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialize *files* (relative path -> source) under *root*."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def lint(tmp_path: Path, files: dict[str, str], baseline=None):
    return run_lint([make_tree(tmp_path, files)], baseline_path=baseline)


def rules_found(report) -> set[str]:
    return {finding.rule for finding in report.new}


# --------------------------------------------------------------------- #
# ARC001 fingerprint-completeness
# --------------------------------------------------------------------- #


def test_arc001_explicit_fingerprint_missing_field(tmp_path):
    report = lint(tmp_path, {"cfg.py": (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Cfg:\n"
        "    alpha: float\n"
        "    beta: float\n"
        "    def fingerprint(self):\n"
        "        return str(self.alpha)\n"
    )})
    assert rules_found(report) == {"ARC001"}
    assert "beta" in report.new[0].message


def test_arc001_asdict_fingerprint_is_complete(tmp_path):
    report = lint(tmp_path, {"cfg.py": (
        "from dataclasses import asdict, dataclass\n"
        "@dataclass\n"
        "class Cfg:\n"
        "    alpha: float\n"
        "    beta: float\n"
        "    def fingerprint(self):\n"
        "        return str(asdict(self))\n"
    )})
    assert report.new == []


def test_arc001_to_dict_delegation_is_complete(tmp_path):
    report = lint(tmp_path, {"cfg.py": (
        "from dataclasses import dataclass, fields\n"
        "@dataclass\n"
        "class Cfg:\n"
        "    alpha: float\n"
        "    beta: float\n"
        "    def to_dict(self):\n"
        "        return {f.name: getattr(self, f.name) "
        "for f in fields(self)}\n"
        "    def fingerprint(self):\n"
        "        return str(self.to_dict())\n"
    )})
    assert report.new == []


def test_arc001_key_schema_omits_field(tmp_path):
    report = lint(tmp_path, {"cache.py": (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Cfg:\n"
        "    alpha: float\n"
        "    beta: float\n"
        "    gamma: float\n"
        "_KEY_FIELDS = ('alpha', 'beta')\n"
    )})
    assert rules_found(report) == {"ARC001"}
    assert "omits" in report.new[0].message
    assert "gamma" in report.new[0].message


def test_arc001_key_schema_with_stale_entry(tmp_path):
    report = lint(tmp_path, {"cache.py": (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Cfg:\n"
        "    alpha: float\n"
        "    beta: float\n"
        "_KEY_FIELDS = ('alpha', 'beta', 'removed_field')\n"
    )})
    assert rules_found(report) == {"ARC001"}
    assert "stale" in report.new[0].message


def test_arc001_complete_key_schema_passes(tmp_path):
    report = lint(tmp_path, {"cache.py": (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Cfg:\n"
        "    alpha: float\n"
        "    beta: float\n"
        "_KEY_FIELDS = ('alpha', 'beta')\n"
    )})
    assert report.new == []


def test_arc001_unrelated_string_tuple_is_ignored(tmp_path):
    report = lint(tmp_path, {"mod.py": (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Cfg:\n"
        "    alpha: float\n"
        "_POLICY_FIELDS = ('greedy', 'always', 'never')\n"
    )})
    assert report.new == []


# --------------------------------------------------------------------- #
# ARC002 determinism
# --------------------------------------------------------------------- #


def test_arc002_unseeded_default_rng(tmp_path):
    report = lint(tmp_path, {"core/mod.py": (
        "import numpy as np\n"
        "def sample():\n"
        "    return np.random.default_rng().random()\n"
    )})
    assert rules_found(report) == {"ARC002"}


def test_arc002_seeded_default_rng_passes(tmp_path):
    report = lint(tmp_path, {"core/mod.py": (
        "import numpy as np\n"
        "def sample(seed):\n"
        "    return np.random.default_rng(seed).random()\n"
    )})
    assert report.new == []


def test_arc002_stdlib_random_and_legacy_numpy(tmp_path):
    report = lint(tmp_path, {"gpu/mod.py": (
        "import random\n"
        "import numpy as np\n"
        "def sample():\n"
        "    return random.random() + np.random.rand()\n"
    )})
    assert len(report.new) == 2
    assert rules_found(report) == {"ARC002"}


def test_arc002_wall_clock_read(tmp_path):
    report = lint(tmp_path, {"trace/mod.py": (
        "import time\n"
        "def stamp():\n"
        "    return time.perf_counter()\n"
    )})
    assert rules_found(report) == {"ARC002"}
    assert "wall-clock" in report.new[0].message


def test_arc002_set_iteration(tmp_path):
    report = lint(tmp_path, {"core/mod.py": (
        "def drain(items):\n"
        "    return [x for x in set(items)]\n"
    )})
    assert rules_found(report) == {"ARC002"}


def test_arc002_sorted_set_iteration_passes(tmp_path):
    report = lint(tmp_path, {"core/mod.py": (
        "def drain(items):\n"
        "    return [x for x in sorted(set(items))]\n"
    )})
    assert report.new == []


def test_arc002_dict_values_iteration(tmp_path):
    report = lint(tmp_path, {"core/mod.py": (
        "def drain(table):\n"
        "    for value in table.values():\n"
        "        yield value\n"
    )})
    assert rules_found(report) == {"ARC002"}


def test_arc002_only_applies_to_engine_packages(tmp_path):
    # The same unseeded RNG in a workload module is legitimate territory
    # for wall clocks and ambient entropy -- the rule must stay quiet.
    report = lint(tmp_path, {"workloads/mod.py": (
        "import numpy as np\n"
        "import time\n"
        "def sample():\n"
        "    return np.random.default_rng().random() + time.time()\n"
    )})
    assert report.new == []


def test_arc002_single_file_keeps_package_scope(tmp_path):
    # Linting one file must not strip its package context: the lint root
    # ascends past __init__.py dirs so `repro lint src/repro/core/x.py`
    # still runs the engine-scoped rules.
    make_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/core/__init__.py": "",
        "repro/core/mod.py": (
            "import random\n"
            "def jitter():\n"
            "    return random.random()\n"
        ),
    })
    report = run_lint([tmp_path / "repro" / "core" / "mod.py"])
    assert rules_found(report) == {"ARC002"}
    assert report.new[0].path == "repro/core/mod.py"


# --------------------------------------------------------------------- #
# ARC003 unit-safety
# --------------------------------------------------------------------- #


def test_arc003_ns_plus_cycles(tmp_path):
    report = lint(tmp_path, {"mod.py": (
        "def total(service_ns, issue_cycles):\n"
        "    return service_ns + issue_cycles\n"
    )})
    assert rules_found(report) == {"ARC003"}


def test_arc003_clock_converted_term_passes(tmp_path):
    report = lint(tmp_path, {"mod.py": (
        "def total(service_ns, issue_cycles, clock_ghz):\n"
        "    return service_ns * clock_ghz + issue_cycles\n"
    )})
    assert report.new == []


def test_arc003_same_unit_sums_pass(tmp_path):
    report = lint(tmp_path, {"mod.py": (
        "def total(a_cycles, b_cycles):\n"
        "    return a_cycles + b_cycles\n"
    )})
    assert report.new == []


def test_arc003_literal_added_to_ns_table(tmp_path):
    report = lint(tmp_path, {"mod.py": (
        "DOMAIN_NS = {'atomic': 0.95}\n"
        "def padded():\n"
        "    return DOMAIN_NS['atomic'] + 0.5\n"
    )})
    assert rules_found(report) == {"ARC003"}
    assert "literal" in report.new[0].message


def test_arc003_cycles_stored_into_ns_table(tmp_path):
    report = lint(tmp_path, {"mod.py": (
        "DOMAIN_NS = {'atomic': 0.95}\n"
        "def poison(extra_cycles):\n"
        "    DOMAIN_NS['atomic'] = extra_cycles\n"
    )})
    assert rules_found(report) == {"ARC003"}


def test_arc003_sees_through_await(tmp_path):
    """An awaited cycles-valued call added to a nanosecond binding is
    still a unit conflict."""
    report = lint(tmp_path, {"core/mod.py": (
        "async def wait_cycles(n):\n"
        "    return n\n"
        "async def total(a_ns, b):\n"
        "    return a_ns + await wait_cycles(b)\n"
    )})
    assert "ARC003" in rules_found(report)


# --------------------------------------------------------------------- #
# ARC004 strategy-conformance
# --------------------------------------------------------------------- #

_STRATEGY_BASE = (
    "class AtomicStrategy:\n"
    "    name = 'abstract'\n"
)


def test_arc004_missing_plan_batch_and_name(tmp_path):
    report = lint(tmp_path, {
        "core/__init__.py": "from core.mod import Broken\n",
        "core/mod.py": _STRATEGY_BASE + (
            "class Broken(AtomicStrategy):\n"
            "    def __init__(self, threshold: float = 0.5):\n"
            "        self.threshold = threshold\n"
        ),
    })
    messages = " ".join(f.message for f in report.new)
    assert rules_found(report) == {"ARC004"}
    assert "plan_batch" in messages


def test_arc004_non_scalar_ctor_parameter(tmp_path):
    report = lint(tmp_path, {
        "core/__init__.py": "from core.mod import Weighted\n",
        "core/mod.py": _STRATEGY_BASE + (
            "class Weighted(AtomicStrategy):\n"
            "    name = 'weighted'\n"
            "    def __init__(self, weights: list):\n"
            "        self.weights = weights\n"
            "    def plan_batch(self, batch, engine):\n"
            "        return None\n"
        ),
    })
    assert rules_found(report) == {"ARC004"}
    assert "non-scalar" in report.new[0].message


def test_arc004_unexported_strategy(tmp_path):
    report = lint(tmp_path, {
        "core/__init__.py": "__all__ = []\n",
        "core/mod.py": _STRATEGY_BASE + (
            "class Hidden(AtomicStrategy):\n"
            "    name = 'hidden'\n"
            "    def plan_batch(self, batch, engine):\n"
            "        return None\n"
        ),
    })
    assert rules_found(report) == {"ARC004"}
    assert "not exported" in report.new[0].message


def test_arc004_conformant_strategy_passes(tmp_path):
    report = lint(tmp_path, {
        "core/__init__.py": "from core.mod import Good\n__all__ = ['Good']\n",
        "core/mod.py": _STRATEGY_BASE + (
            "class Good(AtomicStrategy):\n"
            "    name = 'good'\n"
            "    def __init__(self, threshold: float = 0.5):\n"
            "        self.threshold = threshold\n"
            "    def plan_batch(self, batch, engine):\n"
            "        return None\n"
        ),
    })
    assert report.new == []


def test_arc004_inherited_interface_through_internal_base(tmp_path):
    # plan_batch and name provided by an underscored base: the concrete
    # subclass conforms through inheritance, the base itself is skipped.
    report = lint(tmp_path, {
        "core/__init__.py": "from core.mod import Child\n",
        "core/mod.py": _STRATEGY_BASE + (
            "class _Base(AtomicStrategy):\n"
            "    def __init__(self, threshold: int = 4):\n"
            "        self.name = f'base-{threshold}'\n"
            "    def plan_batch(self, batch, engine):\n"
            "        return None\n"
            "class Child(_Base):\n"
            "    pass\n"
        ),
    })
    assert report.new == []


# --------------------------------------------------------------------- #
# ARC005 resilient-execution
# --------------------------------------------------------------------- #


def test_arc005_flags_executor_map_in_experiments(tmp_path):
    report = lint(tmp_path, {"experiments/run.py": (
        "def run(pool, cells):\n"
        "    return list(pool.map(simulate, cells))\n"
    )})
    assert rules_found(report) == {"ARC005"}
    assert ".map()" in report.new[0].message


def test_arc005_flags_unbounded_future_waits(tmp_path):
    report = lint(tmp_path, {"experiments/run.py": (
        "def drain(futures):\n"
        "    first = futures[0].result()\n"
        "    why = futures[1].exception()\n"
        "    return first, why\n"
    )})
    assert rules_found(report) == {"ARC005"}
    assert len(report.new) == 2
    assert all("timeout" in f.message for f in report.new)


def test_arc005_timeout_and_non_executor_map_pass(tmp_path):
    report = lint(tmp_path, {"experiments/run.py": (
        "def run(executor, futures, series):\n"
        "    done = futures[0].result(timeout=0)\n"
        "    late = futures[1].result(30.0)\n"
        "    mapped = series.map(str)\n"  # not a pool/executor receiver
        "    return done, late, mapped\n"
    )})
    assert report.new == []


def test_arc005_is_scoped_to_experiment_packages(tmp_path):
    # The same anti-pattern outside the experiment-execution packages is
    # out of scope (workloads/benchmarks do not drive worker pools).
    report = lint(tmp_path, {"workloads/run.py": (
        "def run(pool, cells):\n"
        "    return list(pool.map(simulate, cells))\n"
    )})
    assert report.new == []


# --------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------- #


def test_inline_suppression_by_rule(tmp_path):
    report = lint(tmp_path, {"core/mod.py": (
        "import numpy as np\n"
        "def sample():\n"
        "    return np.random.default_rng().random()"
        "  # arclint: disable=ARC002\n"
    )})
    assert report.new == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0].rule == "ARC002"


def test_inline_suppression_all(tmp_path):
    report = lint(tmp_path, {"core/mod.py": (
        "import numpy as np\n"
        "def sample():\n"
        "    return np.random.default_rng().random()"
        "  # arclint: disable=all\n"
    )})
    assert report.new == []
    assert len(report.suppressed) == 1


def test_suppression_for_other_rule_does_not_apply(tmp_path):
    report = lint(tmp_path, {"core/mod.py": (
        "import numpy as np\n"
        "def sample():\n"
        "    return np.random.default_rng().random()"
        "  # arclint: disable=ARC003\n"
    )})
    assert rules_found(report) == {"ARC002"}


# --------------------------------------------------------------------- #
# Baseline machinery
# --------------------------------------------------------------------- #

_RNG_VIOLATION = {
    "core/mod.py": (
        "import numpy as np\n"
        "def sample():\n"
        "    return np.random.default_rng().random()\n"
    )
}


def test_baseline_grandfathers_findings(tmp_path):
    tree = make_tree(tmp_path / "tree", _RNG_VIOLATION)
    baseline = tmp_path / "baseline.json"
    first = run_lint([tree])
    assert first.exit_code == 1
    write_baseline(baseline, first.new)
    second = run_lint([tree], baseline_path=baseline)
    assert second.exit_code == 0
    assert second.new == []
    assert len(second.baselined) == 1


def test_baseline_survives_line_shifts(tmp_path):
    tree = make_tree(tmp_path / "tree", _RNG_VIOLATION)
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, run_lint([tree]).new)
    # Insert lines above the violation: ids are content-addressed, so
    # the entry must still match.
    path = tree / "core/mod.py"
    path.write_text("import numpy as np\n\n\n# shifted\n"
                    + path.read_text().split("\n", 1)[1])
    report = run_lint([tree], baseline_path=baseline)
    assert report.new == []
    assert report.stale_baseline == []
    assert len(report.baselined) == 1


def test_stale_baseline_entry_fails_the_run(tmp_path):
    tree = make_tree(tmp_path / "tree", _RNG_VIOLATION)
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, run_lint([tree]).new)
    # Fix the violation: its baseline entry is now stale and must fail.
    (tree / "core/mod.py").write_text(
        "import numpy as np\n"
        "def sample(seed):\n"
        "    return np.random.default_rng(seed).random()\n"
    )
    report = run_lint([tree], baseline_path=baseline)
    assert report.new == []
    assert len(report.stale_baseline) == 1
    assert report.exit_code == 1


def test_baseline_is_byte_deterministic(tmp_path):
    tree = make_tree(tmp_path / "tree", {
        **_RNG_VIOLATION,
        "core/other.py": "def f(a_ns, b_cycles):\n    return a_ns + b_cycles\n",
    })
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    write_baseline(first, run_lint([tree]).new)
    write_baseline(second, run_lint([tree]).new)
    assert first.read_bytes() == second.read_bytes()
    entries = json.loads(first.read_text())["entries"]
    assert entries == sorted(entries, key=lambda entry: entry["id"])


def test_load_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"version": 99, "entries": []}')
    with pytest.raises(ValueError, match="baseline version"):
        load_baseline(path)


def test_finding_ids_are_stable_and_distinct():
    a = Finding("ARC002", Severity.ERROR, "core/m.py", 3, "msg", "x()", 0)
    b = Finding("ARC002", Severity.ERROR, "core/m.py", 9, "msg", "x()", 0)
    c = Finding("ARC002", Severity.ERROR, "core/m.py", 3, "msg", "x()", 1)
    assert a.content_id == b.content_id  # line number does not matter
    assert a.content_id != c.content_id  # occurrence does


# --------------------------------------------------------------------- #
# Parse errors
# --------------------------------------------------------------------- #


def test_syntax_error_becomes_arc000_finding(tmp_path):
    report = lint(tmp_path, {"mod.py": "def broken(:\n"})
    assert rules_found(report) == {"ARC000"}
    assert report.exit_code == 1


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def test_cli_lint_reports_and_fails(tmp_path, capsys):
    tree = make_tree(tmp_path / "tree", _RNG_VIOLATION)
    assert main(["lint", str(tree), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "ARC002" in out
    assert "new finding" in out


def test_cli_lint_json_schema(tmp_path, capsys):
    tree = make_tree(tmp_path / "tree", _RNG_VIOLATION)
    assert main(["lint", str(tree), "--no-baseline", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["summary"]["new"] == 1
    assert payload["summary"]["exit_code"] == 1
    finding = payload["findings"][0]
    for key in ("id", "rule", "severity", "path", "line", "message",
                "snippet", "occurrence"):
        assert key in finding
    assert finding["rule"] == "ARC002"
    assert finding["path"] == "core/mod.py"


def test_cli_fix_baseline_roundtrip(tmp_path, capsys):
    tree = make_tree(tmp_path / "tree", _RNG_VIOLATION)
    baseline = tmp_path / "baseline.json"
    assert main(["lint", str(tree), "--baseline", str(baseline),
                 "--fix-baseline"]) == 0
    assert main(["lint", str(tree), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


# --------------------------------------------------------------------- #
# Meta: the live tree is clean
# --------------------------------------------------------------------- #


def test_live_tree_is_clean():
    report = run_lint([REPO_SRC], baseline_path=REPO_BASELINE)
    assert report.files_checked > 50
    details = "\n".join(f.render() for f in report.new)
    assert report.new == [], f"arclint findings on src/repro:\n{details}"
    assert report.stale_baseline == []


def test_cli_meta_lint_exits_zero():
    assert main(["lint", str(REPO_SRC), "--baseline",
                 str(REPO_BASELINE)]) == 0
