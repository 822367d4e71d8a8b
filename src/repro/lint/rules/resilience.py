"""ARC005: experiment execution must never block unboundedly on workers.

The PR that introduced the parallel runner drove its pool with
``pool.map`` -- an all-or-nothing blocking wait where one crashed worker
raised :class:`BrokenProcessPool` and discarded every completed cell,
and one hung simulation blocked the run forever.  Execution now goes
through one pool owner, :class:`~repro.service.broker.Broker`, which submits
per-cell futures and awaits each with a bounded per-attempt timeout;
this rule keeps the anti-pattern from creeping back:

* **executor ``.map`` calls** (receiver named like a pool/executor) --
  ``Executor.map`` yields results in submission order behind an
  unbounded wait and cannot attribute, retry or time out individual
  cells.  Submit the cells to the broker (or submit per-cell futures
  and ``concurrent.futures.wait`` with a timeout);
* **``.result()`` / ``.exception()`` without a timeout** -- an
  unbounded block on a single future: a hung worker hangs the whole
  run.  Pass a timeout (``timeout=0`` for futures already known done,
  e.g. returned by ``wait``).

Scoped to the experiment-execution packages
(:attr:`~repro.lint.engine.LintConfig.experiment_packages`): workloads
and benchmarks do not drive worker pools, and the engine packages are
already covered by ARC002's stricter determinism contract.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from repro.lint import astutil
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

if TYPE_CHECKING:
    from repro.lint.engine import LintContext, ModuleInfo

__all__ = ["ResilientExecution"]

#: Receiver-name fragments marking an executor/pool object.  ``.map`` on
#: anything else (a Series, a custom mapper) is out of scope.
_EXECUTOR_NAME_HINTS = ("pool", "executor")

#: Future methods that block until completion unless given a timeout.
_BLOCKING_FUTURE_METHODS = ("result", "exception")


def _names_an_executor(node: ast.AST) -> bool:
    dotted = astutil.dotted_name(node)
    if dotted is None:
        return False
    lowered = dotted.lower()
    return any(hint in lowered for hint in _EXECUTOR_NAME_HINTS)


def _has_timeout(node: ast.Call) -> bool:
    if node.args:
        return True  # positional timeout
    return any(keyword.arg == "timeout" for keyword in node.keywords)


@register
class ResilientExecution(Rule):
    """No bare ``pool.map`` or unbounded future waits in experiments."""

    rule_id = "ARC005"
    category = "resilience"
    invariant = (
        "experiment execution never blocks unboundedly on a worker: no "
        "executor .map(), and every future .result()/.exception() call "
        "carries a timeout"
    )

    def configure(self, config) -> None:
        super().configure(config)
        self.packages = config.experiment_packages

    def check_module(
        self, module: "ModuleInfo", ctx: "LintContext"
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "map" and _names_an_executor(func.value):
                yield self.finding(
                    module, node.lineno,
                    "executor .map() is an all-or-nothing blocking wait: "
                    "one crashed worker discards every completed cell and "
                    "one hung task blocks forever; submit the cells "
                    "to the service broker (or per-cell futures with "
                    "wait() and a timeout)",
                )
            elif (func.attr in _BLOCKING_FUTURE_METHODS
                    and not _has_timeout(node)):
                yield self.finding(
                    module, node.lineno,
                    f".{func.attr}() without a timeout blocks unboundedly "
                    "on one worker; pass timeout=... (timeout=0 for "
                    "futures already returned as done by wait())",
                )
