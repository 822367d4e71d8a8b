"""Seeded-mutant fixture corpus for every arclint rule.

Each :class:`FixtureCase` is a tiny source tree seeded with exactly one
violation of one rule (``kind="positive"``) or the compliant spelling of
the same code (``kind="negative"``).  ``tests/test_lint_fixtures.py``
materializes every case into a temp tree and asserts positives are
caught and negatives stay clean; a meta-test asserts every registered
rule id owns at least one of each kind, so adding a rule without a
fixture fails the suite.

The corpus doubles as executable documentation: each case's ``files``
dict shows the smallest code shape that trips (or satisfies) its rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FixtureCase:
    """One seeded source tree and the verdict arclint must reach on it."""

    rule: str               #: rule id, e.g. ``"ARC002"``
    kind: str               #: ``"positive"`` (must flag) / ``"negative"``
    name: str               #: short slug, unique within (rule, kind)
    files: dict = field(default_factory=dict)  #: rel path -> source
    expect: "str | None" = None  #: substring of a positive's message

    @property
    def id(self) -> str:
        return f"{self.rule}-{self.kind}-{self.name}"


def cases_for(rule: str, kind: "str | None" = None) -> "list[FixtureCase]":
    return [c for c in CASES
            if c.rule == rule and (kind is None or c.kind == kind)]


# --------------------------------------------------------------------- #
# ARC001 fingerprint-completeness
# --------------------------------------------------------------------- #

_ARC001 = [
    FixtureCase("ARC001", "positive", "fingerprint-omits-field", {
        "cfg.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Cfg:\n"
            "    alpha: float\n"
            "    beta: float\n"
            "    def fingerprint(self):\n"
            "        return str(self.alpha)\n"
        ),
    }, expect="beta"),
    FixtureCase("ARC001", "positive", "key-schema-omits-field", {
        "cache.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Cfg:\n"
            "    alpha: float\n"
            "    gamma: float\n"
            "_KEY_FIELDS = ('alpha',)\n"
        ),
    }, expect="gamma"),
    FixtureCase("ARC001", "negative", "asdict-is-complete", {
        "cfg.py": (
            "from dataclasses import asdict, dataclass\n"
            "@dataclass\n"
            "class Cfg:\n"
            "    alpha: float\n"
            "    beta: float\n"
            "    def fingerprint(self):\n"
            "        return str(asdict(self))\n"
        ),
    }),
]


# --------------------------------------------------------------------- #
# ARC002 determinism
# --------------------------------------------------------------------- #

_ARC002 = [
    FixtureCase("ARC002", "positive", "unseeded-rng", {
        "core/mod.py": (
            "import numpy as np\n"
            "def sample():\n"
            "    return np.random.default_rng().random()\n"
        ),
    }),
    FixtureCase("ARC002", "positive", "wall-clock", {
        "trace/mod.py": (
            "import time\n"
            "def stamp():\n"
            "    return time.perf_counter()\n"
        ),
    }, expect="wall-clock"),
    FixtureCase("ARC002", "negative", "seeded-rng-and-sorted-set", {
        "core/mod.py": (
            "import numpy as np\n"
            "def sample(seed, items):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return [rng.random() for _ in sorted(set(items))]\n"
        ),
    }),
    # Telemetry collectors live inside the engine packages, so the
    # determinism rule must still catch one that stamps records off the
    # host clock ...
    FixtureCase("ARC002", "positive", "wall-clock-telemetry", {
        "gpu/probe.py": (
            "import time\n"
            "class Probe:\n"
            "    def __init__(self):\n"
            "        self.spans = []\n"
            "    def record(self, subcore, phase):\n"
            "        self.spans.append((subcore, phase, time.time()))\n"
        ),
    }, expect="wall-clock"),
    # ... while staying silent for one stamped purely in simulated
    # cycles handed over by the engine (the shipped Telemetry design).
    FixtureCase("ARC002", "negative", "sim-time-telemetry", {
        "gpu/probe.py": (
            "class Probe:\n"
            "    def __init__(self):\n"
            "        self.spans = []\n"
            "    def record(self, subcore, phase, start, end):\n"
            "        self.spans.append((subcore, phase, start, end))\n"
        ),
    }),
]


# --------------------------------------------------------------------- #
# ARC004 strategy-conformance
# --------------------------------------------------------------------- #

_STRATEGY_BASE = (
    "class AtomicStrategy:\n"
    "    name = 'abstract'\n"
)

_ARC004 = [
    FixtureCase("ARC004", "positive", "missing-plan-batch", {
        "core/__init__.py": "from core.mod import Broken\n",
        "core/mod.py": _STRATEGY_BASE + (
            "class Broken(AtomicStrategy):\n"
            "    def __init__(self, threshold: float = 0.5):\n"
            "        self.threshold = threshold\n"
        ),
    }, expect="plan_batch"),
    FixtureCase("ARC004", "negative", "conformant-strategy", {
        "core/__init__.py": (
            "from core.mod import Good\n__all__ = ['Good']\n"
        ),
        "core/mod.py": _STRATEGY_BASE + (
            "class Good(AtomicStrategy):\n"
            "    name = 'good'\n"
            "    def __init__(self, threshold: float = 0.5):\n"
            "        self.threshold = threshold\n"
            "    def plan_batch(self, batch, engine):\n"
            "        return None\n"
        ),
    }),
    FixtureCase("ARC004", "positive", "idle-plan-carries-traffic", {
        "core/__init__.py": "from core.mod import Noisy\n",
        "core/mod.py": _STRATEGY_BASE + (
            "class Noisy(AtomicStrategy):\n"
            "    name = 'noisy'\n"
            "    def idle_plan(self):\n"
            "        return BatchPlan(issue_cycles=2.0, ru_values=32)\n"
            "    def plan_batch(self, batch, engine):\n"
            "        return None\n"
        ),
    }, expect="idle_plan"),
    FixtureCase("ARC004", "negative", "idle-plan-spends-cycles-only", {
        "core/__init__.py": "from core.mod import Quiet\n",
        "core/mod.py": _STRATEGY_BASE + (
            "class Quiet(AtomicStrategy):\n"
            "    name = 'quiet'\n"
            "    def idle_plan(self):\n"
            "        return BatchPlan(issue_cycles=2.0, shuffle_ops=4)\n"
            "    def plan_batch(self, batch, engine):\n"
            "        return None\n"
        ),
    }),
    FixtureCase("ARC004", "positive", "plan-shape-writes-self", {
        "core/__init__.py": "from core.mod import Counting\n",
        "core/mod.py": _STRATEGY_BASE + (
            "class Counting(AtomicStrategy):\n"
            "    name = 'counting'\n"
            "    def plan_shape(self, sizes, num_params, mode):\n"
            "        self.shapes_seen += 1\n"
            "        return BatchPlan(issue_cycles=len(sizes) * self.cost)\n"
        ),
    }, expect="plan_shape"),
    FixtureCase("ARC004", "negative", "pure-plan-shape-implements-planning", {
        "core/__init__.py": "from core.mod import Shaped\n",
        "core/mod.py": _STRATEGY_BASE + (
            "class Shaped(AtomicStrategy):\n"
            "    name = 'shaped'\n"
            "    def plan_shape(self, sizes, num_params, mode):\n"
            "        issue = len(sizes) * self.cost\n"
            "        return BatchPlan(issue_cycles=issue)\n"
        ),
    }),
]


CASES: "list[FixtureCase]" = [*_ARC001, *_ARC002, *_ARC004]
