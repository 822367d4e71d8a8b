"""Tests for arclint (:mod:`repro.lint`).

Each rule gets at least one positive fixture (a tiny tree seeded with the
violation) and one negative (the compliant spelling of the same code).
Inline suppressions are exercised through both the library API and the
``repro lint`` CLI (text, JSON and SARIF), and a meta-test asserts the
live tree is clean apart from its one justified suppression.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.lint import rule_ids, run_lint
from repro.lint.findings import Finding, Severity

REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = REPO_ROOT / "src" / "repro"


def make_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialize *files* (relative path -> source) under *root*."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


def lint(tmp_path: Path, files: dict[str, str]):
    return run_lint([make_tree(tmp_path, files)])


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
        "  # arclint: disable=ARC004\n"
    )})
    assert rules_found(report) == {"ARC002"}


# --------------------------------------------------------------------- #
# Finding identity
# --------------------------------------------------------------------- #

_RNG_VIOLATION = {
    "core/mod.py": (
        "import numpy as np\n"
        "def sample():\n"
        "    return np.random.default_rng().random()\n"
    )
}


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
    assert main(["lint", str(tree)]) == 1
    out = capsys.readouterr().out
    assert "ARC002" in out
    assert "new finding" in out


def test_cli_lint_json_schema(tmp_path, capsys):
    tree = make_tree(tmp_path / "tree", _RNG_VIOLATION)
    assert main(["lint", str(tree), "--format", "json"]) == 1
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


def test_cli_sarif_document_shape(tmp_path, capsys):
    tree = make_tree(tmp_path / "tree", {
        **_RNG_VIOLATION,
        "core/clock.py": (
            "import time\n"
            "def stamp():\n"
            "    return time.time()  # arclint: disable=ARC002\n"
        ),
    })
    assert main(["lint", str(tree), "--format", "sarif"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["version"] == "2.1.0"
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "arclint"
    assert [rule["id"] for rule in driver["rules"]] == rule_ids()
    results = run["results"]
    assert [(r["ruleId"], r.get("suppressions")) for r in results] == [
        ("ARC002", None), ("ARC002", [{"kind": "inSource"}]),
    ]
    for result in results:
        assert "arclintContentId/v1" in result["partialFingerprints"]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith(".py")
        assert location["region"]["startLine"] >= 1
    # The human summary goes to stderr so stdout stays a pure document.
    assert "new finding" in captured.err


# --------------------------------------------------------------------- #
# Meta: the live tree is clean
# --------------------------------------------------------------------- #


def test_live_tree_is_clean():
    report = run_lint([REPO_SRC])
    assert report.files_checked > 50
    details = "\n".join(f.render() for f in report.new)
    assert report.new == [], f"arclint findings on src/repro:\n{details}"
    # The one accepted exception: KernelTrace.fingerprint leaves out the
    # cosmetic trace name.
    assert [(f.rule, f.path) for f in report.suppressed] == [
        ("ARC001", "trace/events.py")
    ]


def test_cli_meta_lint_exits_zero():
    assert main(["lint", str(REPO_SRC)]) == 0
