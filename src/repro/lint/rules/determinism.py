"""ARC002: simulation and fingerprint state must be deterministic.

The paper's claims are queueing-model numbers; the reproduction's value
rests on bit-identical reruns (serial == parallel == cached, across
processes and machines).  Inside the engine packages
(``repro/{core,gpu,trace}``, :data:`ENGINE_PACKAGES`) this rule bans
the constructs that silently break that:

* **unseeded / global RNG** -- any :mod:`random` stdlib use (global,
  process-seeded state), legacy ``np.random.*`` module functions (shared
  global generator), and ``np.random.default_rng()`` called without a
  seed;
* **wall-clock reads** -- ``time.time/perf_counter/monotonic/...``,
  ``datetime.now`` and friends: simulated time is the only clock the
  engine may read (wall-clock timing belongs in workloads/benchmarks,
  which are outside this rule's scope);
* **unordered iteration** -- ``for``/comprehensions over ``set`` /
  ``frozenset`` expressions or ``dict.values()``, and
  ``list()/tuple()/enumerate()/iter()`` over set expressions.  Iteration
  order there depends on hash seeding or insertion history, which differs
  across processes; wrap in ``sorted(...)`` to fix an order.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from repro.lint import astutil
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

if TYPE_CHECKING:
    from repro.lint.engine import LintContext, ModuleInfo

__all__ = ["ENGINE_PACKAGES", "Determinism"]

#: Package directories whose modules feed simulation or fingerprint
#: state: the rule's scope.
ENGINE_PACKAGES = ("core", "gpu", "trace")

#: Legacy numpy global-generator entry points (non-exhaustive spot list is
#: unnecessary: everything under ``numpy.random.`` except the seeded
#: constructors below shares module-level state).
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "PCG64",
                 "Philox", "SFC64", "MT19937", "BitGenerator", "RandomState"}

_CLOCK_CALLS = {
    ("time", "time"), ("time", "time_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "process_time"), ("time", "process_time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"),
    ("datetime", "today"), ("date", "today"),
}

#: Materializers whose output order follows the iterable's order.
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter"}


def _is_set_expr(node: ast.AST) -> bool:
    """Whether *node* is statically known to evaluate to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return astutil.called_name(node) in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_dict_values(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "values"
            and not node.args and not node.keywords)


@register
class Determinism(Rule):
    """No RNG, wall clocks, or unordered iteration in the engine."""

    rule_id = "ARC002"
    category = "determinism"
    packages = ENGINE_PACKAGES
    invariant = (
        "engine packages produce bit-identical results across processes: "
        "no global/unseeded RNG, no wall-clock reads, no iteration whose "
        "order depends on hashing or insertion history"
    )

    def check_module(
        self, module: "ModuleInfo", ctx: "LintContext"
    ) -> Iterable[Finding]:
        imports = astutil.import_map(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, imports)
            elif isinstance(node, ast.For):
                yield from self._check_iterable(module, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._check_iterable(module, generator.iter)

    def _check_call(
        self, module: "ModuleInfo", node: ast.Call, imports: dict[str, str]
    ) -> Iterable[Finding]:
        name = astutil.called_name(node)
        if (name in _ORDER_SENSITIVE_CALLS and node.args
                and _is_set_expr(node.args[0])):
            yield self.finding(
                module, node.lineno,
                f"{name}() over a set fixes an arbitrary hash order into "
                "downstream state; use sorted(...) instead",
            )
        qualified = astutil.qualified_call(node, imports)
        if qualified is None:
            return
        parts = qualified.split(".")
        if parts[0] == "random":
            yield self.finding(
                module, node.lineno,
                f"stdlib RNG `{qualified}` uses process-global state; use "
                "np.random.default_rng(seed) threaded through explicitly",
            )
        elif len(parts) >= 3 and parts[0] == "numpy" and parts[1] == "random":
            tail = parts[2]
            if tail == "default_rng":
                if not node.args or (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                ):
                    yield self.finding(
                        module, node.lineno,
                        "np.random.default_rng() without a seed draws OS "
                        "entropy; every engine RNG must take an explicit "
                        "seed",
                    )
            elif tail not in _NP_RANDOM_OK:
                yield self.finding(
                    module, node.lineno,
                    f"legacy `np.random.{tail}` uses the shared global "
                    "generator; construct np.random.default_rng(seed) "
                    "instead",
                )
        elif len(parts) >= 2 and tuple(parts[-2:]) in _CLOCK_CALLS:
            yield self.finding(
                module, node.lineno,
                f"wall-clock read `{qualified}`: engine code may only "
                "advance simulated time (wall timing belongs in "
                "workloads/benchmarks)",
            )

    def _check_iterable(
        self, module: "ModuleInfo", iterable: ast.AST
    ) -> Iterable[Finding]:
        if _is_set_expr(iterable):
            yield self.finding(
                module, iterable.lineno,
                "iteration over a set: order depends on hash seeding; "
                "wrap in sorted(...) before feeding simulation or "
                "fingerprint state",
            )
        elif _is_dict_values(iterable):
            yield self.finding(
                module, iterable.lineno,
                "iteration over dict.values(): order tracks insertion "
                "history, which can differ across processes; iterate "
                "sorted(d) / sorted(d.items()) instead",
            )
