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

    rule: str               #: rule id, e.g. ``"ARC003"``
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
# ARC003 unit-safety (flow-sensitive since v2)
# --------------------------------------------------------------------- #

_ARC003 = [
    FixtureCase("ARC003", "positive", "direct-ns-plus-cycles", {
        "mod.py": (
            "def total(service_ns, issue_cycles):\n"
            "    return service_ns + issue_cycles\n"
        ),
    }, expect="clock_ghz"),
    # v2: the ns tag travels through a neutrally named local before the
    # mix -- invisible to the v1 suffix scan, provable by the dataflow.
    FixtureCase("ARC003", "positive", "aliased-ns-plus-cycles", {
        "mod.py": (
            "def total(service_ns, issue_cycles):\n"
            "    latency = service_ns\n"
            "    return latency + issue_cycles\n"
        ),
    }),
    FixtureCase("ARC003", "positive", "literal-into-ns-table", {
        "mod.py": (
            "DOMAIN_NS = {'atomic': 0.95}\n"
            "def padded():\n"
            "    return DOMAIN_NS['atomic'] + 0.5\n"
        ),
    }, expect="literal"),
    FixtureCase("ARC003", "negative", "clock-converted-alias", {
        "mod.py": (
            "def total(service_ns, issue_cycles, clock_ghz):\n"
            "    latency = service_ns * clock_ghz\n"
            "    return latency + issue_cycles\n"
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


# --------------------------------------------------------------------- #
# ARC005 resilient-execution
# --------------------------------------------------------------------- #

_ARC005 = [
    FixtureCase("ARC005", "positive", "executor-map", {
        "experiments/run.py": (
            "def run(pool, cells):\n"
            "    return list(pool.map(simulate, cells))\n"
        ),
    }, expect=".map()"),
    FixtureCase("ARC005", "negative", "timeouts-everywhere", {
        "experiments/run.py": (
            "def run(futures):\n"
            "    done = futures[0].result(timeout=0)\n"
            "    late = futures[1].result(30.0)\n"
            "    return done, late\n"
        ),
    }),
]


# --------------------------------------------------------------------- #
# ARC006 interprocedural unit contracts
# --------------------------------------------------------------------- #

_ARC006 = [
    # A ns-valued return (by the callee's own name contract) flows into
    # a function whose name promises cycles.
    FixtureCase("ARC006", "positive", "return-mismatch", {
        "core/timing.py": (
            "def service_time_ns(width):\n"
            "    return width * 0.25\n"
            "def total_cycles(width):\n"
            "    return service_time_ns(width)\n"
        ),
    }, expect="total_cycles"),
    # A ns-tagged value crosses a call boundary into a *_cycles param.
    FixtureCase("ARC006", "positive", "arg-mismatch", {
        "core/pipe.py": (
            "def issue(width_cycles):\n"
            "    return width_cycles * 2\n"
            "def drive(service_ns):\n"
            "    return issue(service_ns)\n"
        ),
    }, expect="width_cycles"),
    # The mismatch can hide an arbitrary number of calls deep: the
    # fixpoint converges helper returns before call sites are judged.
    FixtureCase("ARC006", "positive", "two-hop-chain", {
        "core/chain.py": (
            "def base_latency_ns(width):\n"
            "    return width * 0.4\n"
            "def padded(width):\n"
            "    return base_latency_ns(width) + 1.5\n"
            "def issue(width_cycles):\n"
            "    return width_cycles * 2\n"
            "def drive(width):\n"
            "    return issue(padded(width))\n"
        ),
    }, expect="width_cycles"),
    FixtureCase("ARC006", "negative", "clock-converted-call", {
        "core/pipe.py": (
            "def issue(width_cycles):\n"
            "    return width_cycles * 2\n"
            "def drive(service_ns, clock_ghz):\n"
            "    return issue(service_ns * clock_ghz)\n"
        ),
    }),
]


# --------------------------------------------------------------------- #
# ARC007 event-tie determinism
# --------------------------------------------------------------------- #

_ARC007 = [
    FixtureCase("ARC007", "positive", "tuple-without-seq", {
        "gpu/sched.py": (
            "import heapq\n"
            "def run(events):\n"
            "    heap = []\n"
            "    for t, payload in events:\n"
            "        heapq.heappush(heap, (t, payload))\n"
            "    return heap\n"
        ),
    }, expect="push_seq"),
    # Seeding the heap by append before the event loop is still a push.
    FixtureCase("ARC007", "positive", "append-seeded-heap", {
        "gpu/sched.py": (
            "import heapq\n"
            "def seed(pending):\n"
            "    heap = []\n"
            "    for t in pending:\n"
            "        heap.append((t, 'issue'))\n"
            "    heapq.heappush(heap, (0.0, 'drain'))\n"
            "    return heap\n"
        ),
    }),
    FixtureCase("ARC007", "negative", "tuple-with-seq-counter", {
        "gpu/sched.py": (
            "import heapq\n"
            "def run(events):\n"
            "    heap = []\n"
            "    push_seq = 0\n"
            "    for t, payload in events:\n"
            "        heapq.heappush(heap, (t, push_seq, payload))\n"
            "        push_seq += 1\n"
            "    return heap\n"
        ),
    }),
    FixtureCase("ARC007", "negative", "scalar-pushes", {
        "gpu/sched.py": (
            "import heapq\n"
            "def run(times):\n"
            "    heap = []\n"
            "    for t in times:\n"
            "        heapq.heappush(heap, t)\n"
            "    return heap\n"
        ),
    }),
]


# --------------------------------------------------------------------- #
# ARC008 cache-key taint
# --------------------------------------------------------------------- #

# The fingerprint excludes `name` deliberately (cosmetic), with the
# ARC001 suppression that decision requires on the def line.
_TAGGED_TRACE = (
    "from dataclasses import dataclass\n"
    "@dataclass\n"
    "class Trace:\n"
    "    name: str\n"
    "    width: int\n"
    "    def fingerprint(self):  # arclint: disable=ARC001\n"
    "        return str(self.width)\n"
)

_ARC008 = [
    FixtureCase("ARC008", "positive", "excluded-field-branches", {
        "core/mod.py": _TAGGED_TRACE + (
            "def issue(trace: Trace):\n"
            "    if trace.name == 'hot':\n"
            "        return trace.width * 2\n"
            "    return trace.width\n"
        ),
    }, expect="Trace.name"),
    FixtureCase("ARC008", "positive", "excluded-field-via-self", {
        "core/mod.py": _TAGGED_TRACE + (
            "class Engine:\n"
            "    def __init__(self, trace: Trace):\n"
            "        self.trace = trace\n"
            "    def cost(self):\n"
            "        return len(self.trace.name) * self.trace.width\n"
        ),
    }),
    FixtureCase("ARC008", "negative", "label-only-reads", {
        "core/mod.py": _TAGGED_TRACE + (
            "def describe(trace: Trace, render):\n"
            "    return render(trace_name=trace.name, width=trace.width)\n"
            "def banner(trace: Trace):\n"
            "    return f'trace {trace.name}: width={trace.width}'\n"
        ),
    }),
]


CASES: "list[FixtureCase]" = [
    *_ARC001, *_ARC002, *_ARC003, *_ARC004,
    *_ARC005, *_ARC006, *_ARC007, *_ARC008,
]
