"""ARC013-ARC016: async-safety of the simulation service stack.

The service layer (PR 8) runs a single asyncio event loop in front of
the experiment stack's process pools.  Everything on that loop shares
one thread: a blocking call in any coroutine stalls every queued
request at once, a dropped task swallows its exception, an unbounded
await outlives the deadline the client paid for, and a cancellation
landing between an acquire and its release leaks the slot forever.
These rules make those four contracts checkable on top of the
coroutine-context analysis (:mod:`repro.lint.dataflow.asyncctx`):

* **ARC013 -- the loop never blocks.**  No blocking call (sync file
  I/O, ``time.sleep``, ``subprocess``, socket dials, ``Future.result``)
  may be reachable in coroutine context unless it is routed through an
  executor (``run_in_executor`` / ``to_thread``), which the analysis
  models as an escape hatch.  Audited microsecond appends (the obslog
  sink, the manifest journal) are config-allowlisted -- exempt from the
  finding but still part of the static model the runtime sanitizer
  checks against.
* **ARC014 -- await discipline.**  A coroutine call whose result is
  discarded never runs; a ``create_task``/``ensure_future`` whose
  handle is dropped runs but loses its exception.  Both are silent.
* **ARC015 -- deadline taint.**  In a function that handles a
  deadline-carrying request, every await of an unbounded operation
  (bare futures, ``.wait()``/``.get()``/``.acquire()``/``.join()``,
  ``wrap_future``) must be ``asyncio.wait_for``-guarded, and the
  timeout handed to ``wait_for`` must be a *clamped* value, not the
  shared ``self.policy`` default that ignores the remaining budget.
* **ARC016 -- cancellation safety.**  An await is a cancellation
  point.  Queue items taken before one must be balanced by
  ``task_done()`` in a ``finally``; lock/semaphore/breaker-slot
  acquires must ``release()`` in a ``finally`` (or use ``async
  with``); awaited journal/manifest writes must be wrapped in
  ``asyncio.shield`` so a cancelled waiter cannot tear the record.

All four are finalize-only rules scoped to the service packages and
share one ``(scope, contexts)`` analysis per run.  ARC013's model is
cross-checked at runtime by the ``REPRO_SANITIZE`` sanitizer
(:mod:`repro.obs.sanitize`): blocking frames it observes on the loop
thread during the chaos suite must be a subset of
:meth:`~repro.lint.dataflow.asyncctx.AsyncContexts.blocking_model`, so
analysis unsoundness surfaces as a test failure, exactly as the same
record stream does for the process-safety rules.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.lint import astutil
from repro.lint.dataflow import FunctionSymbol, analysis_for
from repro.lint.dataflow.asyncctx import (
    TASK_SPAWNERS,
    AsyncContexts,
    classify_call,
    walk_own_body,
)
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

if TYPE_CHECKING:
    from repro.lint.engine import LintContext, ModuleInfo

__all__ = [
    "LoopBlockingCall",
    "AwaitDiscipline",
    "DeadlineTaint",
    "CancellationSafety",
]

_SHARED_KEY = "asyncsafety.analyses"

#: Awaited attribute calls with no intrinsic timeout: the shapes that
#: must sit inside ``asyncio.wait_for`` on a deadline-carrying path.
_UNBOUNDED_AWAIT_METHODS = ("wait", "get", "join", "acquire")

#: Identifier fragment marking a deadline-carrying binding.
_DEADLINE_HINT = "deadline"

#: Receiver fragments for ARC016's three resource families.
_QUEUE_HINTS = ("queue",)
_SLOT_HINTS = ("lock", "sem", "breaker", "slot")
_JOURNAL_HINTS = ("journal", "manifest")
_JOURNAL_WRITE_METHODS = ("record", "append", "write")


def _scope_modules(ctx: "LintContext") -> "list[ModuleInfo]":
    config = ctx.config
    return [
        module for module in ctx.modules
        if module.tree is not None and any(
            part in config.asyncsafety_packages
            for part in module.rel_parts[:-1]
        )
    ]


def _analyses(
    ctx: "LintContext",
) -> "tuple[list[ModuleInfo], AsyncContexts]":
    """The run's shared (scope, async-contexts) pair."""
    cached = ctx.shared.get(_SHARED_KEY)
    if cached is None:
        analysis = analysis_for(ctx)
        scope = _scope_modules(ctx)
        contexts = AsyncContexts(
            analysis.table, analysis.graph, ctx.config
        )
        cached = (scope, contexts)
        ctx.shared[_SHARED_KEY] = cached
    return cached


def _scope_functions(
    ctx: "LintContext", scope: "list[ModuleInfo]"
) -> "list[FunctionSymbol]":
    table = analysis_for(ctx).table
    scope_ids = {id(module) for module in scope}
    return [fn for fn in table.functions() if id(fn.module) in scope_ids]


def _own_calls(fn: FunctionSymbol) -> "Iterator[ast.Call]":
    for node in walk_own_body(fn.node):
        if isinstance(node, ast.Call):
            yield node


def _mentions_deadline(fn: FunctionSymbol) -> bool:
    """Whether *fn* handles a deadline: a parameter, local or attribute
    whose name carries the hint (``request.deadline``, ``remaining``
    derived from ``effective_deadline()`` included by its callee name)."""
    args = fn.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if _DEADLINE_HINT in arg.arg.lower():
            return True
    for node in walk_own_body(fn.node):
        if isinstance(node, ast.Name) \
                and _DEADLINE_HINT in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) \
                and _DEADLINE_HINT in node.attr.lower():
            return True
    return False


class _AsyncSafetyRule(Rule):
    """Shared scaffolding: finalize-only, whole-tree, async-safety."""

    category = "async-safety"
    needs_all_modules = True


@register
class LoopBlockingCall(_AsyncSafetyRule):
    """ARC013: no blocking call reachable in coroutine context."""

    rule_id = "ARC013"
    invariant = (
        "no blocking call (sync file I/O, time.sleep, subprocess, "
        "socket dials, Future.result) is reachable in coroutine "
        "context: one stalled callback serializes every queued "
        "request; blocking work runs through run_in_executor/to_thread "
        "or is config-allowlisted as an audited microsecond append"
    )

    def finalize(self, ctx: "LintContext") -> Iterable[Finding]:
        scope, contexts = _analyses(ctx)
        allow = set(ctx.config.async_blocking_allowlist)
        scope_ids = {id(module) for module in scope}
        for fn in _scope_functions(ctx, scope):
            if fn.qname not in contexts.coro_set:
                continue
            imports = contexts.table.imports[
                contexts.table.name_of(fn.module)
            ]
            for call in _own_calls(fn):
                reason = classify_call(call, imports, ctx.config)
                if reason is not None:
                    yield self.finding(
                        fn.module, call.lineno,
                        f"{reason} in coroutine context "
                        f"({fn.qname} runs on the event loop); route "
                        "it through run_in_executor/to_thread",
                    )
                    continue
                callee = contexts.resolve_call_target(fn, call)
                if callee is None or callee.is_async:
                    continue
                if callee.qname in allow:
                    continue
                effect = contexts.effects.get(callee.qname)
                if effect is None:
                    continue
                if id(callee.module) in scope_ids:
                    # The callee is itself in scope and coroutine-
                    # reachable through this very edge: the finding
                    # lands at its primitive site, not at every caller.
                    continue
                via = "" if effect.origin == callee.qname \
                    else f" via {effect.origin}"
                yield self.finding(
                    fn.module, call.lineno,
                    f"call to {callee.qname} blocks the event loop "
                    f"({effect.reason}{via}); route it through "
                    "run_in_executor/to_thread",
                )


@register
class AwaitDiscipline(_AsyncSafetyRule):
    """ARC014: coroutines are awaited, task handles are retained."""

    rule_id = "ARC014"
    invariant = (
        "every coroutine call is awaited (a discarded coroutine object "
        "never runs) and every create_task/ensure_future handle is "
        "retained so its exception has somewhere to land"
    )

    def finalize(self, ctx: "LintContext") -> Iterable[Finding]:
        scope, contexts = _analyses(ctx)
        for fn in _scope_functions(ctx, scope):
            for node in walk_own_body(fn.node):
                if not (isinstance(node, ast.Expr)
                        and isinstance(node.value, ast.Call)):
                    continue
                call = node.value
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) \
                    else (func.id if isinstance(func, ast.Name) else None)
                if name in TASK_SPAWNERS:
                    yield self.finding(
                        fn.module, call.lineno,
                        f"{name}() handle is dropped: the task's "
                        "exception is swallowed when it is garbage "
                        "collected; keep the handle and give it an "
                        "exception sink (await it, or add a "
                        "done-callback that logs)",
                    )
                    continue
                callee = contexts.resolve_call_target(fn, call)
                if callee is not None and callee.is_async:
                    yield self.finding(
                        fn.module, call.lineno,
                        f"coroutine {callee.qname}() is never awaited: "
                        "calling an async def only creates the "
                        "coroutine object; await it or schedule it "
                        "with a retained create_task handle",
                    )


@register
class DeadlineTaint(_AsyncSafetyRule):
    """ARC015: deadline-carrying awaits are guarded and clamped."""

    rule_id = "ARC015"
    invariant = (
        "in a function handling a deadline-carrying request, every "
        "await of an unbounded operation sits inside asyncio.wait_for, "
        "and the wait_for timeout is derived from the remaining budget "
        "(RetryPolicy.clamped), never the shared policy default"
    )

    def finalize(self, ctx: "LintContext") -> Iterable[Finding]:
        scope, contexts = _analyses(ctx)
        for fn in _scope_functions(ctx, scope):
            if not fn.is_async or not _mentions_deadline(fn):
                continue
            for node in walk_own_body(fn.node):
                if not isinstance(node, ast.Await):
                    continue
                yield from self._check_await(ctx, contexts, fn, node)

    def _check_await(self, ctx, contexts: AsyncContexts,
                     fn: FunctionSymbol,
                     node: ast.Await) -> Iterable[Finding]:
        operand = node.value
        if isinstance(operand, ast.Name):
            yield self.finding(
                fn.module, node.lineno,
                f"bare await of future '{operand.id}' on a "
                "deadline-carrying path: nothing bounds the wait; "
                "wrap it in asyncio.wait_for with the remaining "
                "budget",
            )
            return
        if not isinstance(operand, ast.Call):
            return
        dotted = astutil.dotted_name(operand.func) or ""
        tail = dotted.rpartition(".")[2]
        head = dotted.partition(".")[0]
        if tail == "wait_for":
            yield from self._check_clamp(fn, operand)
            return
        if head == "asyncio" or tail in ("sleep", "shield", "gather",
                                         "wait_for"):
            # asyncio.sleep is the budget's own pacing; shield/gather
            # contents are judged where their coroutines are defined.
            return
        callee = contexts.resolve_call_target(fn, operand)
        if callee is not None:
            # A project coroutine: its own awaits are judged in its
            # own body, where the deadline taint travels with it.
            return
        if tail in _UNBOUNDED_AWAIT_METHODS or tail == "wrap_future":
            yield self.finding(
                fn.module, node.lineno,
                f"unbounded await {dotted}() on a deadline-carrying "
                "path: the wait can outlive the request's budget; "
                "guard it with asyncio.wait_for(remaining) or clamp "
                "it into the RetryPolicy",
            )

    def _check_clamp(self, fn: FunctionSymbol,
                     call: ast.Call) -> Iterable[Finding]:
        timeout: "ast.AST | None" = None
        if len(call.args) >= 2:
            timeout = call.args[1]
        for keyword in call.keywords:
            if keyword.arg == "timeout":
                timeout = keyword.value
        dotted = astutil.dotted_name(timeout) if timeout is not None \
            else None
        if dotted and dotted.startswith("self.") and "policy" in dotted:
            yield self.finding(
                fn.module, call.lineno,
                f"wait_for timeout {dotted} is the shared policy "
                "default, not the request's remaining budget; derive "
                "it via policy.clamped(remaining) so the guard cannot "
                "outlive the deadline",
            )


@register
class CancellationSafety(_AsyncSafetyRule):
    """ARC016: loop-held resources survive cancellation."""

    rule_id = "ARC016"
    invariant = (
        "resources acquired across an await survive cancellation: "
        "queue items taken before an await are balanced by task_done() "
        "in a finally, lock/semaphore/breaker-slot acquires release() "
        "in a finally (or use async with), and awaited journal writes "
        "are asyncio.shield-wrapped so a cancelled waiter cannot tear "
        "the record"
    )

    def finalize(self, ctx: "LintContext") -> Iterable[Finding]:
        scope, _ = _analyses(ctx)
        for fn in _scope_functions(ctx, scope):
            if not fn.is_async:
                continue
            finally_calls = _finally_call_names(fn)
            for node in walk_own_body(fn.node):
                if not (isinstance(node, ast.Await)
                        and isinstance(node.value, ast.Call)
                        and isinstance(node.value.func, ast.Attribute)):
                    continue
                func = node.value.func
                receiver = (astutil.dotted_name(func.value) or "").lower()
                if func.attr == "get" \
                        and any(h in receiver for h in _QUEUE_HINTS) \
                        and "task_done" not in finally_calls:
                    yield self.finding(
                        fn.module, node.lineno,
                        f"queue item taken from {receiver} with no "
                        "task_done() in a finally: a cancellation "
                        "after this await strands the item and "
                        "deadlocks queue.join()",
                    )
                elif func.attr == "acquire" \
                        and any(h in receiver for h in _SLOT_HINTS) \
                        and "release" not in finally_calls:
                    yield self.finding(
                        fn.module, node.lineno,
                        f"{receiver}.acquire() with no release() in a "
                        "finally: a cancellation landing on a later "
                        "await leaks the slot forever; release in a "
                        "finally or use 'async with'",
                    )
                elif func.attr in _JOURNAL_WRITE_METHODS \
                        and any(h in receiver for h in _JOURNAL_HINTS):
                    yield self.finding(
                        fn.module, node.lineno,
                        f"awaited journal write {receiver}."
                        f"{func.attr}() is not shielded: a cancelled "
                        "waiter tears the record mid-write; wrap it "
                        "in asyncio.shield(...)",
                    )


def _finally_call_names(fn: FunctionSymbol) -> set[str]:
    """Names of every call made inside any ``finally`` block of *fn*."""
    out: set[str] = set()
    for node in walk_own_body(fn.node):
        if not isinstance(node, ast.Try):
            continue
        for stmt in node.finalbody:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    func = sub.func
                    if isinstance(func, ast.Attribute):
                        out.add(func.attr)
                    elif isinstance(func, ast.Name):
                        out.add(func.id)
    return out
