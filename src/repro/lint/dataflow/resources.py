"""Escape/alias analysis for shared-resource file handles.

Multiple processes of one experiment run share four kinds of on-disk
state: committed cache entries (``<root>/results``), quarantined corrupt
entries (``<root>/quarantine``), the resumable run manifest
(``<root>/manifests``) and the ``REPRO_OBSLOG`` JSONL sink.  Each is a
**resource class**, and every file access whose path provably derives
from one of them is attributed to its class plus the **protocol** the
access uses:

* ``atomic-rename``   -- ``os.replace``/``os.rename`` onto the shared
  path (readers observe the old or the new file, never a mix);
* ``o-append``        -- ``os.open`` with ``O_APPEND`` (concurrent
  single-``write`` appends interleave at record granularity);
* ``temp-file``       -- ``tempfile.mkstemp`` next to the target (the
  private half of an atomic-rename write; never shared, never flagged);
* ``raw-write``       -- ``open(path, "w")`` / ``write_text`` /
  ``write_bytes`` directly on the shared path (a concurrent reader can
  observe a torn file);
* ``buffered-append`` -- ``open(path, "a")`` (appends through a python
  buffer can flush mid-record, interleaving torn lines).

The first two are *sound* under concurrency; the last two are what
ARC009 flags, and ARC012 checks that all sound writers of one class
agree on a single protocol.  The protocol names (and the ``open``-mode
rule) are defined once, in :mod:`repro.obs.sanitize`, whose runtime
records fold into the same vocabulary.

Attribution is an alias analysis seeded by identifier patterns
(:attr:`~repro.lint.engine.LintConfig.resource_patterns`): an expression
mentioning ``quarantine_dir`` or calling ``entry_path()`` is classified
directly, and the class then propagates through local assignment,
``/``-joins, ``.parent``/``.name`` hops, f-strings, ``Path(...)``
wrapping, the return values of project functions (``entry_path`` returns
a results path, so every resolved call site inherits it), methods of a
class whose *name* matches a pattern (``RunManifest.record`` writing
``self.path``), and one level of parameter passing at resolved call
sites (``faults.corrupt_entry(path)`` truncating whatever
``cache.entry_path(key)`` the caller handed it).  Paths that resolve to
no class -- spool temp dirs, fixture scratch files -- are simply outside
the model, keeping the analysis under-approximate like the rest of the
dataflow layer.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.lint import astutil
from repro.lint.dataflow.procctx import method_call_target, receiver_classes
from repro.lint.dataflow.symbols import (
    ClassSymbol,
    FunctionSymbol,
    SymbolTable,
)
from repro.obs.sanitize import (
    PROTOCOL_APPEND,
    PROTOCOL_ATOMIC_RENAME,
    PROTOCOL_BUFFERED_APPEND,
    PROTOCOL_RAW_WRITE,
    PROTOCOL_TEMP,
    mode_protocol,
)

if TYPE_CHECKING:
    from repro.lint.dataflow.callgraph import CallGraph
    from repro.lint.engine import ModuleInfo

__all__ = [
    "Access",
    "PROTOCOL_APPEND",
    "PROTOCOL_ATOMIC_RENAME",
    "PROTOCOL_BUFFERED_APPEND",
    "PROTOCOL_RAW_WRITE",
    "PROTOCOL_TEMP",
    "ResourceModel",
    "SOUND_PROTOCOLS",
]

#: Write protocols safe under concurrent multi-process writers.
SOUND_PROTOCOLS = frozenset({PROTOCOL_ATOMIC_RENAME, PROTOCOL_APPEND})

#: ``os.open`` flag names that make the descriptor writable.
_WRITE_FLAGS = frozenset({"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC"})

#: How many alias hops :meth:`ResourceModel._classify` will follow.
_MAX_DEPTH = 10


@dataclass(frozen=True)
class Access:
    """One classified file access at a concrete source location."""

    function: str           #: qname of the enclosing function
    module_path: str        #: lint-root-relative path (finding anchor)
    line: int
    kind: str               #: ``"read"`` or ``"write"``
    protocol: "str | None"  #: write protocol (``None`` for reads)
    resource: str           #: resource class name
    detail: str             #: rendered path expression


class ResourceModel:
    """Every classified access in the process-safety module scope."""

    def __init__(self, table: SymbolTable, graph: "CallGraph", config,
                 modules: "list[ModuleInfo]"):
        self.table = table
        self.graph = graph
        self.config = config
        self.patterns = tuple(config.resource_patterns)
        scope_ids = {id(module) for module in modules}
        self._functions = [
            fn for fn in table.functions() if id(fn.module) in scope_ids
        ]
        self._receivers = {
            fn.qname: receiver_classes(fn, table) for fn in self._functions
        }
        #: Function qname -> resource class its return value carries.
        self.returns: dict[str, str] = {}
        self._param_classes: dict[tuple[str, str], str] = {}
        self._converge_returns()
        self._param_classes = self._infer_param_classes()
        self.accesses: list[Access] = []
        for fn in self._functions:
            self._extract_accesses(fn)

    # Classification ---------------------------------------------------- #

    def _pattern_class(self, name: "str | None") -> "str | None":
        if not name:
            return None
        lowered = name.lower()
        for pattern, resource in self.patterns:
            if pattern in lowered:
                return resource
        return None

    def _call_target(
        self, fn: FunctionSymbol, call: ast.Call
    ) -> "FunctionSymbol | None":
        method = method_call_target(call, self._receivers.get(fn.qname, {}))
        if method is not None:
            return method
        dotted = astutil.dotted_name(call.func)
        if (fn.cls is not None and dotted is not None
                and dotted.startswith("self.")):
            rest = dotted[len("self."):]
            if "." not in rest:
                found = fn.cls.methods.get(rest)
                if found is not None:
                    return found
        symbol = self.table.resolve_call(fn.module, call)
        if isinstance(symbol, FunctionSymbol):
            return symbol
        return None

    def _classify(self, fn: FunctionSymbol, expr: "ast.AST | None",
                  env: dict[str, str], depth: int = 0) -> "str | None":
        """Resource class of a path expression, or ``None``."""
        if expr is None or depth > _MAX_DEPTH:
            return None
        if isinstance(expr, ast.Name):
            return env.get(expr.id) or self._pattern_class(expr.id)
        if isinstance(expr, ast.Attribute):
            cls = self._pattern_class(expr.attr)
            if cls is not None:
                return cls
            # Methods of e.g. RunManifest: self-rooted paths belong to
            # the class the enclosing type's *name* matches.
            if (isinstance(expr.value, ast.Name) and expr.value.id == "self"
                    and fn.cls is not None):
                cls = self._pattern_class(fn.cls.name)
                if cls is not None:
                    return cls
            return self._classify(fn, expr.value, env, depth + 1)
        if isinstance(expr, ast.BinOp):
            return (self._classify(fn, expr.left, env, depth + 1)
                    or self._classify(fn, expr.right, env, depth + 1))
        if isinstance(expr, ast.Subscript):
            return self._classify(fn, expr.value, env, depth + 1)
        if isinstance(expr, ast.JoinedStr):
            for value in expr.values:
                if isinstance(value, ast.FormattedValue):
                    cls = self._classify(fn, value.value, env, depth + 1)
                    if cls is not None:
                        return cls
            return None
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                cls = self._classify(fn, value, env, depth + 1)
                if cls is not None:
                    return cls
            return None
        if isinstance(expr, ast.Call):
            name = astutil.called_name(expr)
            cls = self._pattern_class(name)
            if cls is not None:
                return cls
            target = self._call_target(fn, expr)
            if target is not None and target.qname in self.returns:
                return self.returns[target.qname]
            if name in ("Path", "PurePath", "str", "fspath") and expr.args:
                return self._classify(fn, expr.args[0], env, depth + 1)
            # Path-producing methods (.with_suffix, .resolve, .absolute)
            # keep their receiver's class.
            if isinstance(expr.func, ast.Attribute):
                return self._classify(fn, expr.func.value, env, depth + 1)
            return None
        return None

    def _local_env(self, fn: FunctionSymbol) -> dict[str, str]:
        """Name -> class for *fn*'s parameters and local aliases."""
        env: dict[str, str] = {}
        args = fn.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            cls = (self._param_classes.get((fn.qname, arg.arg))
                   or self._pattern_class(arg.arg))
            if cls is not None:
                env[arg.arg] = cls
        assigns = [
            node for node in ast.walk(fn.node)
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ]
        assigns.sort(key=lambda node: node.lineno)
        # Two passes pick up aliases defined textually after first use
        # (loop bodies); chains longer than that are outside the model.
        for _ in range(2):
            for node in assigns:
                cls = self._classify(fn, node.value, env)
                if cls is not None:
                    env[node.targets[0].id] = cls
        return env

    # Interprocedural summaries ----------------------------------------- #

    def _converge_returns(self) -> None:
        """Return-class summaries, iterated so call chains converge."""
        for _ in range(3):
            changed = False
            for fn in self._functions:
                env = self._local_env(fn)
                classes = set()
                for node in ast.walk(fn.node):
                    if isinstance(node, ast.Return) and node.value is not None:
                        cls = self._classify(fn, node.value, env)
                        if cls is not None:
                            classes.add(cls)
                if len(classes) == 1:
                    cls = classes.pop()
                    if self.returns.get(fn.qname) != cls:
                        self.returns[fn.qname] = cls
                        changed = True
            if not changed:
                return

    def _infer_param_classes(self) -> dict[tuple[str, str], str]:
        """(function qname, param) -> class, from resolved call sites.

        One level only: the caller's own environment is computed from
        patterns and summaries, not from *its* callers.
        """
        out: dict[tuple[str, str], str] = {}
        caller_envs: dict[str, dict[str, str]] = {}
        for fn in self._functions:
            params = [
                arg.arg for arg in fn.node.args.posonlyargs + fn.node.args.args
                if arg.arg != "self"
            ]
            if not params:
                continue
            candidates: dict[str, set[str]] = {}
            for site in self.graph.calls_to.get(fn.qname, ()):
                caller = site.caller
                if caller.qname not in caller_envs:
                    caller_envs[caller.qname] = (
                        self._local_env(caller)
                        if any(c is caller for c in self._functions)
                        else {}
                    )
                env = caller_envs[caller.qname]
                for index, arg in enumerate(site.node.args):
                    if index >= len(params):
                        break
                    cls = self._classify(caller, arg, env)
                    if cls is not None:
                        candidates.setdefault(params[index], set()).add(cls)
                for keyword in site.node.keywords:
                    if keyword.arg in params:
                        cls = self._classify(caller, keyword.value, env)
                        if cls is not None:
                            candidates.setdefault(
                                keyword.arg, set()
                            ).add(cls)
            for param, classes in candidates.items():
                if len(classes) == 1:
                    out[(fn.qname, param)] = classes.pop()
        return out

    # Access extraction -------------------------------------------------- #

    def _record(self, fn: FunctionSymbol, env: dict[str, str],
                node: ast.Call, path_expr: ast.AST, kind: str,
                protocol: "str | None") -> None:
        resource = self._classify(fn, path_expr, env)
        if resource is None:
            return
        self.accesses.append(Access(
            function=fn.qname,
            module_path=fn.module.rel_path,
            line=node.lineno,
            kind=kind,
            protocol=protocol,
            resource=resource,
            detail=ast.unparse(path_expr),
        ))

    def _extract_accesses(self, fn: FunctionSymbol) -> None:
        env = self._local_env(fn)
        imports = self.table.imports[self.table.name_of(fn.module)]
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            name = astutil.called_name(node)
            qualified = astutil.qualified_call(node, imports)
            if qualified in ("os.open",) and len(node.args) >= 2:
                flags = {
                    ident for ident in astutil.identifier_names(node.args[1])
                }
                if "O_APPEND" in flags:
                    kind, protocol = "write", PROTOCOL_APPEND
                elif flags & _WRITE_FLAGS:
                    kind, protocol = "write", PROTOCOL_RAW_WRITE
                else:
                    kind, protocol = "read", None
                self._record(fn, env, node, node.args[0], kind, protocol)
            elif qualified in ("os.fdopen",):
                continue  # wraps an fd; its protocol was set at os.open
            elif name == "open" and qualified in ("open", "io.open"):
                if not node.args:
                    continue
                kind, protocol = _open_mode_protocol(node, mode_index=1)
                self._record(fn, env, node, node.args[0], kind, protocol)
            elif (name == "open" and isinstance(node.func, ast.Attribute)):
                # pathlib-style p.open(mode): the receiver is the path.
                kind, protocol = _open_mode_protocol(node, mode_index=0)
                self._record(fn, env, node, node.func.value, kind, protocol)
            elif name in ("replace", "rename"):
                if qualified in ("os.replace", "os.rename"):
                    if len(node.args) >= 2:
                        self._record(fn, env, node, node.args[1],
                                     "write", PROTOCOL_ATOMIC_RENAME)
                elif isinstance(node.func, ast.Attribute) and node.args:
                    self._record(fn, env, node, node.args[0],
                                 "write", PROTOCOL_ATOMIC_RENAME)
            elif (name in ("write_text", "write_bytes")
                    and isinstance(node.func, ast.Attribute)):
                self._record(fn, env, node, node.func.value,
                             "write", PROTOCOL_RAW_WRITE)
            elif (name in ("read_text", "read_bytes")
                    and isinstance(node.func, ast.Attribute)):
                self._record(fn, env, node, node.func.value, "read", None)
            elif name == "mkstemp":
                for keyword in node.keywords:
                    if keyword.arg == "dir":
                        self._record(fn, env, node, keyword.value,
                                     "write", PROTOCOL_TEMP)

    # The model ---------------------------------------------------------- #

    def writes(self) -> list[Access]:
        """Every write access, temp-file halves excluded."""
        return [
            access for access in self.accesses
            if access.kind == "write" and access.protocol != PROTOCOL_TEMP
        ]

    def protocol_model(self) -> dict[str, set[str]]:
        """Resource class -> set of write protocols the tree uses.

        This is the static side of the ``REPRO_SANITIZE`` I/O
        cross-check: every protocol the runtime shim observes for a
        class must appear here, or the analysis missed a writer.
        """
        model: dict[str, set[str]] = {}
        for access in self.writes():
            model.setdefault(access.resource, set()).add(access.protocol)
        return model


def _open_mode_protocol(
    node: ast.Call, mode_index: int
) -> "tuple[str, str | None]":
    """(kind, protocol) of an ``open``-style call from its mode."""
    mode = "r"
    if len(node.args) > mode_index:
        arg = node.args[mode_index]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            mode = arg.value
    for keyword in node.keywords:
        if (keyword.arg == "mode" and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, str)):
            mode = keyword.value.value
    protocol = mode_protocol(mode)
    return ("read", None) if protocol is None else ("write", protocol)
