"""ARC009-ARC012: process-safety of the multi-process experiment stack.

The experiment runner fans cells across a ``spawn``
:class:`~concurrent.futures.ProcessPoolExecutor`; the disk cache, the
quarantine dir, the manifest journal and the ``REPRO_OBSLOG`` sink are
all written by several processes at once.  These rules make the three
disciplines that keep that sound *checkable*, on top of the
process-context analysis (:mod:`repro.lint.dataflow.procctx`) and the
shared-resource escape analysis (:mod:`repro.lint.dataflow.resources`):

* **ARC009 -- sound write protocols.**  Every write whose path reaches a
  shared resource class must be a private temp file + ``os.replace``
  (readers see old or new, never a mix) or an ``os.open(...O_APPEND)``
  single-``write`` (appends land whole).  Raw ``open(path, "w")`` /
  ``write_text`` / buffered ``open(path, "a")`` on a shared path lets a
  concurrent reader observe a torn file.
* **ARC010 -- spawn inherits nothing.**  A spawn worker re-imports every
  module, so module-level mutations made by the parent *after* import
  never arrive.  A global that is only ever written in parent context
  but read in worker context is therefore silently stale in the worker;
  the value must travel via submit arguments, the pool initializer, or a
  declared environment variable.
* **ARC011 -- the spawn-carry set is the env contract.**  Workers see
  the parent's environment as snapshotted at pool construction: mutating
  ``os.environ`` after a pool exists (or inside a worker) configures
  nobody, and a worker-context read of a ``REPRO_*`` key only works if
  that key is exported before construction -- i.e. is declared in
  :attr:`~repro.lint.engine.LintConfig.spawn_carry_env`.
* **ARC012 -- one protocol per resource.**  Atomicity protocols only
  compose with themselves: an ``O_APPEND`` writer interleaved with an
  atomic-rename rewriter of the same file can lose the append that
  landed between the rename's read and replace.  All (sound) writers of
  one resource class must agree on a single protocol.

All four are finalize-only rules over the process-safety scope
(``repro/experiments`` plus ``repro/obslog.py`` by default) and share
one ``(contexts, resources)`` analysis pair per run.  The static model
ARC009/ARC012 consume is cross-checked at runtime by the
``REPRO_SANITIZE`` sanitizer (:mod:`repro.obs.sanitize`): protocols the
shim observes during the chaos suite must be a subset of the model, so
analysis unsoundness surfaces as a test failure.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.lint import astutil
from repro.lint.dataflow import FunctionSymbol, analysis_for
from repro.lint.dataflow.procctx import BOTH, WORKER, ProcessContexts
from repro.lint.dataflow.resources import (
    PROTOCOL_BUFFERED_APPEND,
    PROTOCOL_RAW_WRITE,
    SOUND_PROTOCOLS,
    ResourceModel,
)
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

if TYPE_CHECKING:
    from repro.lint.engine import LintContext, ModuleInfo

__all__ = [
    "SharedWriteProtocol",
    "SpawnGlobalCarry",
    "SpawnEnvDiscipline",
    "ResourceProtocolAgreement",
]

_SHARED_KEY = "procsafety.analyses"

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "add", "clear", "update", "setdefault", "pop", "extend",
    "insert", "remove", "discard", "popitem", "appendleft",
})

#: ``os.environ`` methods that mutate the environment.
_ENV_MUTATORS = frozenset({"pop", "setdefault", "update", "clear"})


def _scope_modules(ctx: "LintContext") -> "list[ModuleInfo]":
    config = ctx.config
    out = []
    for module in ctx.modules:
        if module.tree is None:
            continue
        in_package = any(
            part in config.procsafety_packages
            for part in module.rel_parts[:-1]
        )
        stem = Path(module.rel_parts[-1]).stem
        if in_package or stem in config.procsafety_module_stems:
            out.append(module)
    return out


def _analyses(
    ctx: "LintContext",
) -> "tuple[list[ModuleInfo], ProcessContexts, ResourceModel]":
    """The run's shared (scope, contexts, resources) triple."""
    cached = ctx.shared.get(_SHARED_KEY)
    if cached is None:
        analysis = analysis_for(ctx)
        scope = _scope_modules(ctx)
        contexts = ProcessContexts(analysis.table, analysis.graph, ctx.config)
        resources = ResourceModel(
            analysis.table, analysis.graph, ctx.config, scope
        )
        cached = (scope, contexts, resources)
        ctx.shared[_SHARED_KEY] = cached
    return cached


def _module_for(ctx: "LintContext", rel_path: str) -> "ModuleInfo | None":
    for module in ctx.modules:
        if module.rel_path == rel_path:
            return module
    return None


def _scope_functions(
    ctx: "LintContext", scope: "list[ModuleInfo]"
) -> "list[FunctionSymbol]":
    table = analysis_for(ctx).table
    scope_ids = {id(module) for module in scope}
    return [fn for fn in table.functions() if id(fn.module) in scope_ids]


class _ProcessSafetyRule(Rule):
    """Shared scaffolding: finalize-only, whole-tree, process-safety."""

    category = "process-safety"
    needs_all_modules = True


@register
class SharedWriteProtocol(_ProcessSafetyRule):
    """ARC009: shared files are written atomically or O_APPEND."""

    rule_id = "ARC009"
    invariant = (
        "every write to a shared resource path (cache entries, "
        "quarantine, manifest journal, obslog sink) uses a private temp "
        "file + os.replace or an os.open(O_APPEND) single write; raw "
        "open(path, 'w')/'a'/write_text can be observed torn by a "
        "concurrent reader"
    )

    def finalize(self, ctx: "LintContext") -> Iterable[Finding]:
        _, _, resources = _analyses(ctx)
        for access in resources.writes():
            if access.protocol not in (PROTOCOL_RAW_WRITE,
                                       PROTOCOL_BUFFERED_APPEND):
                continue
            module = _module_for(ctx, access.module_path)
            if module is None:
                continue
            how = ("a buffered append" if
                   access.protocol == PROTOCOL_BUFFERED_APPEND
                   else "a raw in-place write")
            yield self.finding(
                module, access.line,
                f"{how} to shared resource '{access.resource}' "
                f"({access.detail}): a concurrent process can read the "
                "file mid-write; write a private temp file and "
                "os.replace() it over the target, or append one "
                "complete record via os.open(..., O_APPEND) + a single "
                "os.write",
            )


@register
class SpawnGlobalCarry(_ProcessSafetyRule):
    """ARC010: parent-mutated globals are invisible to spawn workers."""

    rule_id = "ARC010"
    invariant = (
        "module-level mutable state read in spawn-worker context is "
        "never written only by the parent: spawn re-imports modules, so "
        "parent mutations after import do not reach workers -- carry "
        "the value via submit arguments, the pool initializer, or a "
        "declared REPRO_* environment variable"
    )

    def finalize(self, ctx: "LintContext") -> Iterable[Finding]:
        scope, contexts, _ = _analyses(ctx)
        functions = _scope_functions(ctx, scope)
        by_module: dict[int, list[FunctionSymbol]] = {}
        for fn in functions:
            by_module.setdefault(id(fn.module), []).append(fn)
        for module in scope:
            globals_ = _module_level_names(module.tree)
            if not globals_:
                continue
            writers: dict[str, list[str]] = {}
            readers: dict[str, list[tuple[FunctionSymbol, int]]] = {}
            for fn in by_module.get(id(module), ()):  # noqa: B020
                usage = _global_usage(fn, globals_)
                for name in usage.writes:
                    writers.setdefault(name, []).append(fn.qname)
                for name, line in usage.reads:
                    readers.setdefault(name, []).append((fn, line))
            for name, writer_qnames in sorted(writers.items()):
                if any(contexts.worker_context(q) for q in writer_qnames):
                    # A worker-side writer means the worker establishes
                    # its own copy (initializer pattern) -- sound.
                    continue
                flagged: set[int] = set()
                for fn, line in readers.get(name, ()):  # noqa: B020
                    if not contexts.worker_context(fn.qname):
                        continue
                    if line in flagged:
                        continue
                    flagged.add(line)
                    context = contexts.context_of(fn.qname)
                    side = ("worker" if context == WORKER
                            else "worker-reachable")
                    yield self.finding(
                        module, line,
                        f"global '{name}' is written only in parent "
                        f"context ({', '.join(sorted(set(writer_qnames)))}) "
                        f"but read here in {side} context "
                        f"({fn.qname}): spawn workers re-import the "
                        "module and never see parent mutations; carry "
                        "the value via submit arguments, the pool "
                        "initializer, or a declared REPRO_* env var",
                    )


@register
class SpawnEnvDiscipline(_ProcessSafetyRule):
    """ARC011: env mutations precede pools; worker reads are declared."""

    rule_id = "ARC011"
    invariant = (
        "os.environ is never mutated after a worker pool is constructed "
        "(workers snapshot the environment at construction) or inside "
        "worker context, and every worker-context read of a REPRO_* key "
        "is declared in the spawn-carry set"
    )

    def finalize(self, ctx: "LintContext") -> Iterable[Finding]:
        scope, contexts, _ = _analyses(ctx)
        table = analysis_for(ctx).table
        carry = set(ctx.config.spawn_carry_env)
        prefixes = tuple(ctx.config.env_prefixes)
        constants = _module_constants(ctx)
        for fn in _scope_functions(ctx, scope):
            module = fn.module
            module_name = table.name_of(module)
            imports = table.imports[module_name]
            in_worker = contexts.worker_context(fn.qname)
            nodes = list(_walked(fn.node))
            pool_lines = [
                node.lineno for node in nodes
                if isinstance(node, ast.Call) and _is_pool_ctor(node)
            ]
            pool_line = min(pool_lines) if pool_lines else None
            for node in nodes:
                line = getattr(node, "lineno", 0)
                mutation = _env_mutation(node, imports)
                if mutation is not None:
                    if in_worker:
                        yield self.finding(
                            module, line,
                            f"os.environ {mutation} in worker-reachable "
                            f"context ({fn.qname}): a worker mutating "
                            "its own environment snapshot configures "
                            "nothing outside that process and leaks "
                            "state across the cells the worker is "
                            "reused for",
                        )
                    elif pool_line is not None and line > pool_line:
                        yield self.finding(
                            module, line,
                            f"os.environ {mutation} after a worker pool "
                            f"was constructed (line {pool_line}): spawn "
                            "workers snapshot the environment at "
                            "construction, so this value never reaches "
                            "them; export it before building the pool",
                        )
                if in_worker and isinstance(node, ast.expr):
                    key = _env_read_key(node, module_name, imports,
                                        constants)
                    if (key is not None and key.startswith(prefixes)
                            and key not in carry):
                        yield self.finding(
                            module, line,
                            f"worker-context read of env var '{key}' "
                            f"({fn.qname}) that is not in the "
                            "spawn-carry set: the key is only visible "
                            "to workers if it is exported before pool "
                            "construction; add it to "
                            "LintConfig.spawn_carry_env alongside the "
                            "export, or pass the value via submit "
                            "arguments",
                        )


@register
class ResourceProtocolAgreement(_ProcessSafetyRule):
    """ARC012: all writers of one resource share one protocol."""

    rule_id = "ARC012"
    invariant = (
        "all concurrent writers of one shared resource class use a "
        "single atomicity protocol: O_APPEND appends interleaved with "
        "atomic-rename rewrites of the same file can lose records"
    )

    def finalize(self, ctx: "LintContext") -> Iterable[Finding]:
        _, _, resources = _analyses(ctx)
        by_resource: dict[str, list] = {}
        for access in resources.writes():
            if access.protocol in SOUND_PROTOCOLS:
                by_resource.setdefault(access.resource, []).append(access)
        for resource, accesses in sorted(by_resource.items()):
            protocols = {access.protocol for access in accesses}
            if len(protocols) <= 1:
                continue
            counts: dict[str, int] = {}
            for access in accesses:
                counts[access.protocol] = counts.get(access.protocol, 0) + 1
            dominant = min(
                counts, key=lambda proto: (-counts[proto], proto)
            )
            for access in accesses:
                if access.protocol == dominant:
                    continue
                module = _module_for(ctx, access.module_path)
                if module is None:
                    continue
                yield self.finding(
                    module, access.line,
                    f"resource '{resource}' is written with protocol "
                    f"'{access.protocol}' here but "
                    f"'{dominant}' elsewhere "
                    f"({counts[dominant]} site(s)): mixed atomicity "
                    "protocols on one resource can lose concurrent "
                    "updates; converge every writer on one protocol",
                )


# Helpers -------------------------------------------------------------- #


def _walked(node: ast.AST) -> Iterable[ast.AST]:
    return ast.walk(node)


def _module_level_names(tree: ast.Module) -> set[str]:
    """Names bound by module-level assignments (candidate globals)."""
    names: set[str] = set()
    for stmt in tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Tuple):
                names.update(
                    elt.id for elt in target.elts
                    if isinstance(elt, ast.Name)
                )
    return names


class _GlobalUsage:
    def __init__(self) -> None:
        self.writes: set[str] = set()
        self.reads: list[tuple[str, int]] = []


def _global_usage(fn: FunctionSymbol, globals_: set[str]) -> _GlobalUsage:
    """Which module globals *fn* writes (rebind/mutate) and reads.

    A name locally rebound without a ``global`` declaration shadows the
    module global, so its uses are neither reads nor writes of it.
    """
    usage = _GlobalUsage()
    declared: set[str] = set()
    stored: set[str] = set()
    args = fn.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else [])]:
        stored.add(arg.arg)
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Global):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stored.add(node.id)
    for name in globals_:
        if name in declared and name in stored:
            usage.writes.add(name)
    shadowed = {
        name for name in stored
        if name in globals_ and name not in declared
    }
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in globals_
                    and func.value.id not in shadowed):
                usage.writes.add(func.value.id)
        elif (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name)
                and node.value.id in globals_
                and node.value.id not in shadowed):
            usage.writes.add(node.value.id)
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id in globals_ and node.id not in shadowed):
            usage.reads.append((node.id, node.lineno))
    return usage


def _is_pool_ctor(node: ast.Call) -> bool:
    name = astutil.called_name(node)
    if not name or not name[0].isupper():
        return False
    return "Executor" in name or name.endswith("Pool")


def _environ_expr(node: ast.AST, imports: dict) -> bool:
    """Whether *node* denotes ``os.environ`` (through import aliases)."""
    dotted = astutil.dotted_name(node)
    if dotted is None:
        return False
    if dotted == "os.environ":
        return True
    head, _, rest = dotted.partition(".")
    origin = imports.get(head)
    qualified = f"{origin}.{rest}" if origin and rest else origin
    return qualified == "os.environ" or dotted == "environ" and (
        imports.get("environ") == "os.environ"
    )


def _env_mutation(node: ast.AST, imports: dict) -> "str | None":
    """Describe the env mutation *node* performs, or ``None``."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if (isinstance(target, ast.Subscript)
                    and _environ_expr(target.value, imports)):
                return "item assignment"
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if (isinstance(target, ast.Subscript)
                    and _environ_expr(target.value, imports)):
                return "item deletion"
    elif isinstance(node, ast.Call):
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in _ENV_MUTATORS
                and _environ_expr(func.value, imports)):
            return f".{func.attr}() call"
        qualified = astutil.qualified_call(node, imports)
        if qualified in ("os.putenv", "os.unsetenv"):
            return f"{qualified}() call"
    return None


def _module_constants(ctx: "LintContext") -> dict[str, dict[str, str]]:
    """module dotted name -> {constant name: string value}."""
    table = analysis_for(ctx).table
    out: dict[str, dict[str, str]] = {}
    for module in ctx.modules:
        if module.tree is None:
            continue
        consts: dict[str, str] = {}
        for stmt in module.tree.body:
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                consts[stmt.targets[0].id] = stmt.value.value
        out[table.name_of(module)] = consts
    return out


def _resolve_key(
    node: ast.AST, module_name: str, imports: dict,
    constants: dict[str, dict[str, str]],
) -> "str | None":
    """String value of an env-key expression, where provable."""
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, str) else None
    dotted = astutil.dotted_name(node)
    if dotted is None:
        return None
    value = constants.get(module_name, {}).get(dotted)
    if value is not None:
        return value
    head, _, rest = dotted.partition(".")
    origin = imports.get(head)
    if origin is None:
        return None
    qualified = f"{origin}.{rest}" if rest else origin
    owner, _, const = qualified.rpartition(".")
    for name, consts in constants.items():
        if name == owner or name.endswith(f".{owner}"):
            if const in consts:
                return consts[const]
    return None


def _env_read_key(
    node: ast.expr, module_name: str, imports: dict,
    constants: dict[str, dict[str, str]],
) -> "str | None":
    """Env key an expression reads via environ/getenv, if resolvable."""
    key_expr: "ast.AST | None" = None
    if isinstance(node, ast.Call):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "get"
                and _environ_expr(func.value, imports) and node.args):
            key_expr = node.args[0]
        elif (astutil.qualified_call(node, imports) == "os.getenv"
                and node.args):
            key_expr = node.args[0]
    elif (isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and _environ_expr(node.value, imports)):
        key_expr = node.slice
    if key_expr is None:
        return None
    return _resolve_key(key_expr, module_name, imports, constants)
