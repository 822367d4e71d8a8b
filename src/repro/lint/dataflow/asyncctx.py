"""Coroutine-context analysis: which functions run on the event loop.

The simulation service (PR 8) put an asyncio daemon in front of the
experiment stack, which adds a third execution axis to the dataflow
layer: *where a function's body runs relative to the event loop*.  A
blocking call is harmless in a worker thread and catastrophic inside a
coroutine -- one sync ``open()`` in the broker's admission path stalls
every queued request at once.  This module computes the async
reachability lattice the async-safety rules (ARC013-ARC016) consume:

* **sync**      -- only ever runs off the loop (CLI entry points, the
  socket client, pool workers);
* **coroutine** -- runs on the loop: every ``async def`` body plus each
  sync helper a coroutine provably calls;
* **both**      -- shared helpers reachable from either side.

Edges are built from a function's *own body only* -- nested ``def``s and
lambdas do not execute when the enclosing function runs, so walking into
them (as the generic call graph does) would fabricate coroutine
reachability for sanitizer internals that are only ever invoked through
dynamically-installed wrappers.  Escape hatches are modelled
explicitly: a function passed *by reference* to ``run_in_executor``,
``asyncio.to_thread`` or a pool's ``submit`` runs off the loop, produces
no call edge, and is recorded as an escape so rules (and docs) can say
*why* a blocking helper is considered safe.

On top of the lattice sits a blocking-call classifier seeded with the
project's real blockers (sync ``open``/pathlib reads, ``time.sleep``,
``subprocess``, ``socket`` dials, ``Future.result()``, numpy trace
spooling) and closed into a blocking *effect* per function: a function
blocks if its own body hits a primitive or if it calls -- directly or
transitively, never through an ``async def`` boundary or an escape
hatch -- a function that does.  The coroutine-reachable slice of that
effect set is exported as :meth:`AsyncContexts.blocking_model`, the
exact static model the runtime sanitizer
(:mod:`repro.obs.sanitize`) checks observed stalls against.

Everything stays under-approximate: calls the resolver cannot bind
produce no edge and no effect, so the analysis only ever *claims*
coroutine context or blocking behaviour along a provable path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.lint import astutil
from repro.lint.dataflow.procctx import (
    method_call_target,
    receiver_classes,
    resolve_function_ref,
)
from repro.lint.dataflow.symbols import (
    ClassSymbol,
    FunctionSymbol,
    SymbolTable,
    annotation_name,
)

if TYPE_CHECKING:
    from repro.lint.dataflow.callgraph import CallGraph

__all__ = [
    "BOTH",
    "CORO",
    "SYNC",
    "AsyncContexts",
    "BlockingCall",
    "BlockingEffect",
    "classify_call",
    "walk_own_body",
]

SYNC = "sync"
CORO = "coroutine"
BOTH = "both"

#: Call names that move a callable *off* the event loop: the argument
#: runs in an executor thread, so its blocking calls are by design.
EXECUTOR_ESCAPES = ("run_in_executor", "to_thread")

#: Call names that schedule a coroutine on the loop without awaiting it.
TASK_SPAWNERS = ("create_task", "ensure_future")

#: Receiver-name fragments marking a concurrent future / socket; the
#: same lexical-hint style the executor heuristic (ARC005) established.
_FUTURE_NAME_HINTS = ("future", "fut")
_SOCKET_NAME_HINTS = ("sock", "conn")

_FUTURE_BLOCKING_METHODS = ("result", "exception")
_SOCKET_BLOCKING_METHODS = (
    "connect", "accept", "recv", "recv_into", "sendall", "makefile",
)

_EXECUTOR_NAME_HINTS = ("pool", "executor")


def walk_own_body(node: ast.AST) -> Iterator[ast.AST]:
    """Every AST node of *node*'s body, excluding nested callables.

    Nested ``def``/``async def``/``lambda`` bodies do not execute when
    the enclosing function does, so both the context closure and the
    blocking classifier must not look inside them.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


@dataclass(frozen=True)
class BlockingCall:
    """One blocking primitive hit directly in a function body."""

    line: int
    display: str
    reason: str


@dataclass(frozen=True)
class BlockingEffect:
    """Why a function blocks: a primitive of its own, or a callee's."""

    origin: str  #: qname of the function whose body hits the primitive
    reason: str
    line: int    #: line of the primitive inside *origin*


def _call_display(call: ast.Call) -> str:
    name = astutil.dotted_name(call.func)
    return f"{name}()" if name else "<call>()"


def classify_call(call: ast.Call, imports: dict[str, str],
                  config) -> "str | None":
    """Reason string if *call* is a blocking primitive, else ``None``."""
    qualified = astutil.qualified_call(call, imports)
    if qualified in config.async_blocking_calls:
        return f"blocking primitive {qualified}()"
    func = call.func
    if isinstance(func, ast.Attribute):
        receiver = (astutil.dotted_name(func.value) or "").lower()
        if func.attr in config.async_blocking_methods:
            return f"synchronous file I/O via .{func.attr}()"
        if func.attr in _FUTURE_BLOCKING_METHODS \
                and any(h in receiver for h in _FUTURE_NAME_HINTS):
            return f"thread-blocking wait on a future via .{func.attr}()"
        if func.attr in _SOCKET_BLOCKING_METHODS \
                and any(h in receiver for h in _SOCKET_NAME_HINTS):
            return f"blocking socket operation .{func.attr}()"
    return None


class AsyncContexts:
    """Sync/coroutine/both classification plus blocking effects."""

    def __init__(self, table: SymbolTable, graph: "CallGraph", config):
        self.table = table
        self.graph = graph
        self.config = config
        #: qname -> callee qnames, own-body resolved calls only.
        self.edges: dict[str, set[str]] = {}
        #: qname -> human-readable reason it escapes the event loop.
        self.escapes: dict[str, str] = {}
        #: qname -> blocking primitives hit directly in its own body.
        self.direct: dict[str, list[BlockingCall]] = {}
        #: qname -> the effect that makes it block (fixpoint result).
        self.effects: dict[str, BlockingEffect] = {}
        self._receivers: dict[str, dict[str, ClassSymbol]] = {}
        self._attr_cls_cache: dict[str, dict[str, ClassSymbol]] = {}
        self._build()
        self.coro_roots = {
            f.qname for f in table.functions() if f.is_async
        }
        self.coro_set = self._coroutine_closure()
        self.sync_set = self._sync_closure()
        self._converge_effects()

    # Construction ------------------------------------------------------ #

    def _receiver_map(self, function: FunctionSymbol) -> dict:
        cached = self._receivers.get(function.qname)
        if cached is None:
            cached = receiver_classes(function, self.table)
            self._receivers[function.qname] = cached
        return cached

    def resolve_call_target(
        self, function: FunctionSymbol, call: ast.Call
    ) -> "FunctionSymbol | None":
        """Project function a call in *function*'s body binds to.

        Resolution sources, in order: typed local receivers
        (``cache.load`` through ``cache = active_cache()``), ``self``
        attributes typed in ``__init__`` (``self._journal.record``),
        and the symbol table's alias-resolved lookup (which covers
        plain names, ``module.func`` and ``self.method``).
        """
        method = method_call_target(call, self._receiver_map(function))
        if method is not None:
            return method
        func = call.func
        if (function.cls is not None
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"):
            method = function.cls.methods.get(func.attr)
            if method is not None:
                return method
        method = self._self_attr_target(function, call)
        if method is not None:
            return method
        symbol = self.table.resolve_call(function.module, call)
        if isinstance(symbol, FunctionSymbol):
            return symbol
        if isinstance(symbol, ClassSymbol):
            return symbol.methods.get("__init__")
        return None

    def _self_attr_target(
        self, function: FunctionSymbol, call: ast.Call
    ) -> "FunctionSymbol | None":
        if function.cls is None:
            return None
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"):
            return None
        cls = self._attr_classes(function.cls).get(func.value.attr)
        if cls is not None:
            return cls.methods.get(func.attr)
        return None

    def _attr_classes(self, cls: ClassSymbol) -> dict[str, ClassSymbol]:
        """``self.X`` attribute -> class, resolved project-wide.

        Merges the symbol table's annotation-derived map with
        constructor assignments made in *any* method body
        (``self._supervisor = PoolSupervisor(...)`` in ``start``), the
        same two sources :func:`receiver_classes` trusts for locals.
        """
        cached = self._attr_cls_cache.get(cls.qname)
        if cached is not None:
            return cached
        out: dict[str, ClassSymbol] = {}
        for attr, name in cls.attr_class.items():
            resolved = self.table.resolve_class_name(cls.module, name)
            if resolved is not None:
                out[attr] = resolved
        for method in cls.methods.values():
            for node in walk_own_body(method.node):
                if not (isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Attribute)
                        and isinstance(node.targets[0].value, ast.Name)
                        and node.targets[0].value.id == "self"
                        and isinstance(node.value, ast.Call)):
                    continue
                symbol = self.table.resolve_call(cls.module, node.value)
                resolved = None
                if isinstance(symbol, ClassSymbol):
                    resolved = symbol
                elif isinstance(symbol, FunctionSymbol):
                    resolved = self.table.resolve_class_name(
                        symbol.module,
                        annotation_name(symbol.node.returns),
                    )
                if resolved is not None:
                    out.setdefault(node.targets[0].attr, resolved)
        self._attr_cls_cache[cls.qname] = out
        return out

    def _resolve_ref(
        self, function: FunctionSymbol, node: ast.AST
    ) -> "FunctionSymbol | None":
        dotted = astutil.dotted_name(node)
        if dotted and dotted.startswith("self.") and function.cls:
            return function.cls.methods.get(dotted[len("self."):])
        return resolve_function_ref(self.table, function.module, node)

    def _build(self) -> None:
        for function in self.table.functions():
            imports = self.table.imports[
                self.table.name_of(function.module)
            ]
            targets: set[str] = set()
            blockers: list[BlockingCall] = []
            for node in walk_own_body(function.node):
                if not isinstance(node, ast.Call):
                    continue
                self._scan_escape(function, node)
                reason = classify_call(node, imports, self.config)
                if reason is not None:
                    blockers.append(BlockingCall(
                        node.lineno, _call_display(node), reason
                    ))
                    continue
                callee = self.resolve_call_target(function, node)
                if callee is not None:
                    targets.add(callee.qname)
            self.edges[function.qname] = targets
            if blockers:
                self.direct[function.qname] = sorted(
                    blockers, key=lambda b: b.line
                )

    def _scan_escape(self, function: FunctionSymbol,
                     call: ast.Call) -> None:
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        ref: "ast.AST | None" = None
        if name == "run_in_executor" and len(call.args) >= 2:
            ref = call.args[1]
        elif name == "to_thread" and call.args:
            ref = call.args[0]
        elif (name == "submit" and call.args
                and isinstance(func, ast.Attribute)):
            receiver = (astutil.dotted_name(func.value) or "").lower()
            if any(h in receiver for h in _EXECUTOR_NAME_HINTS):
                ref = call.args[0]
        if ref is None:
            return
        target = self._resolve_ref(function, ref)
        if target is not None:
            self.escapes.setdefault(
                target.qname,
                f"passed to {name}() in {function.qname}",
            )

    def _coroutine_closure(self) -> set[str]:
        """Roots are ``async def`` bodies; every resolved call from one
        runs on the loop too (awaited coroutines *and* sync helpers)."""
        seen = set(self.coro_roots)
        frontier = list(self.coro_roots)
        while frontier:
            for callee in self.edges.get(frontier.pop(), ()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen

    def _sync_closure(self) -> set[str]:
        """Roots: uncalled sync functions (library/CLI entries) plus
        every escape-hatch target.  Calling an ``async def`` from sync
        code does not run its body, so the walk stops there."""
        incoming: set[str] = set()
        for callees in self.edges.values():
            incoming.update(callees)
        roots = {
            qname for qname in self.edges
            if qname not in incoming and qname not in self.coro_roots
        }
        roots.update(self.escapes)
        seen = set(roots)
        frontier = list(roots)
        while frontier:
            for callee in self.edges.get(frontier.pop(), ()):
                if callee in seen or callee in self.coro_roots:
                    continue
                seen.add(callee)
                frontier.append(callee)
        return seen

    def _converge_effects(self) -> None:
        """Propagate blocking effects callee -> caller to a fixpoint.

        An ``async def`` callee contributes no effect to its caller:
        *calling* a coroutine function only instantiates it, and once
        awaited its body is judged in its own right as a coroutine
        root.  Escaped callees likewise stay out -- invoking them goes
        through an executor by construction.
        """
        for qname, blockers in self.direct.items():
            first = blockers[0]
            self.effects[qname] = BlockingEffect(
                qname, first.reason, first.line
            )
        changed = True
        while changed:
            changed = False
            for qname in sorted(self.edges):
                if qname in self.effects:
                    continue
                for callee in sorted(self.edges[qname]):
                    if callee in self.coro_roots:
                        continue
                    effect = self.effects.get(callee)
                    if effect is not None:
                        self.effects[qname] = effect
                        changed = True
                        break

    # Lookup ------------------------------------------------------------ #

    def context_of(self, qname: str) -> str:
        """``sync`` / ``coroutine`` / ``both`` for a function qname.

        Functions outside both closures default to ``sync``: the
        analysis never claims coroutine context without a provable
        path, so the async-safety rules stay free of false positives.
        """
        in_coro = qname in self.coro_set
        in_sync = qname in self.sync_set
        if in_coro and in_sync:
            return BOTH
        if in_coro:
            return CORO
        return SYNC

    def coroutine_context(self, qname: str) -> bool:
        """Whether *qname* can run on the event loop at all."""
        return qname in self.coro_set

    def blocking_model(self) -> set[str]:
        """Coroutine-reachable functions with a blocking effect.

        This is the static half of the loop-stall cross-check: on a clean
        sanitized daemon run, every frame the runtime attributes a
        loop-thread blocking operation to must be in this set.
        Allowlisted callees (ARC013 exemptions) are deliberately *in*
        the model -- exemption silences the finding, not the physics.
        """
        return {
            qname for qname in self.coro_set if qname in self.effects
        }
