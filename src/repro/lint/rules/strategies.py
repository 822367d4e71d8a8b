"""ARC004: every concrete ``AtomicStrategy`` must be simulatable *and*
cacheable.

The experiment runner treats strategies uniformly: it instantiates them
from :data:`repro.experiments.runner.STRATEGY_FACTORIES` (which imports
from :mod:`repro.core`), simulates via ``plan_batch``, and keys the disk
cache with :func:`repro.experiments.diskcache.strategy_fingerprint` --
which reads the instance's public attributes and rejects non-scalars at
*runtime*.  This rule moves those contracts to lint time.  For every
concrete subclass of ``AtomicStrategy`` (transitively, across modules):

* it must implement or inherit ``plan_batch`` or ``plan_shape`` (below
  the abstract root);
* an ``idle_plan`` override may spend only sub-core cycles: a
  ``BatchPlan(...)`` in it must not pass ``requests``, ``ru_values``,
  ``sm_buffer_ops`` or ``l1_tag_ops`` (the engine applies it to every
  idle batch unseen, and raises at run time if it carries traffic);
* a ``plan_shape`` must not assign any ``self.*`` attribute: the engine
  plans each batch shape once per kernel and reuses the template, so a
  write there would be skipped for every later batch of that shape;
* it must bind a report ``name`` (class attribute or ``self.name`` in
  ``__init__``) -- the runner and report tables key on it;
* its ``__init__`` parameters must be scalars: no container/array
  annotations, no mutable defaults, so ``strategy_fingerprint`` can
  always derive a complete cache key from the constructed instance;
* it must be exported from its package's ``__init__`` (when that
  ``__init__.py`` is part of the linted tree), so the factory table and
  ``repro list`` can reach it.

Classes prefixed ``_`` are treated as internal bases and only checked as
part of their subclasses' inheritance chains.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.lint import astutil
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

if TYPE_CHECKING:
    from repro.lint.engine import LintContext, ModuleInfo

__all__ = ["StrategyConformance"]

_ROOT_CLASS = "AtomicStrategy"

#: ``BatchPlan`` fields an ``idle_plan`` must leave at their defaults,
#: with their positional index in the constructor.
_IDLE_TRAFFIC_FIELDS = {"ru_values": 1, "sm_buffer_ops": 2,
                        "l1_tag_ops": 3, "requests": 5}

#: Annotation identifiers marking a non-scalar constructor parameter.
_NON_SCALAR_ANNOTATIONS = {
    "list", "dict", "set", "tuple", "frozenset",
    "List", "Dict", "Set", "Tuple", "Sequence", "Mapping", "MutableMapping",
    "Iterable", "Iterator", "Callable", "ndarray", "array", "NDArray",
}


@dataclass
class _ClassInfo:
    """What ARC004 needs to know about one class definition."""

    name: str
    module: "ModuleInfo"
    lineno: int
    bases: list[str]
    methods: dict[str, ast.FunctionDef]
    class_attrs: set[str]
    init_self_attrs: set[str]
    init_node: "ast.FunctionDef | None"
    is_abstract: bool = False


@dataclass
class _PackageExports:
    """Names reachable from one package ``__init__.py``."""

    module: "ModuleInfo"
    names: set[str] = field(default_factory=set)


def _base_names(node: ast.ClassDef) -> list[str]:
    names = []
    for base in node.bases:
        dotted = astutil.dotted_name(base)
        if dotted:
            names.append(dotted.rpartition(".")[2])
    return names


def _collect_class(module: "ModuleInfo", node: ast.ClassDef) -> _ClassInfo:
    methods: dict[str, ast.FunctionDef] = {}
    class_attrs: set[str] = set()
    init_self_attrs: set[str] = set()
    init_node = None
    is_abstract = any(
        name in ("ABC", "ABCMeta") for name in _base_names(node)
    )
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef):
            methods[stmt.name] = stmt
            for decorator in stmt.decorator_list:
                dotted = astutil.dotted_name(decorator) or ""
                if dotted.rpartition(".")[2] == "abstractmethod":
                    is_abstract = True
            if stmt.name == "__init__":
                init_node = stmt
                for sub in ast.walk(stmt):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"):
                        init_self_attrs.add(sub.attr)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    class_attrs.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            class_attrs.add(stmt.target.id)
    return _ClassInfo(
        name=node.name, module=module, lineno=node.lineno,
        bases=_base_names(node), methods=methods, class_attrs=class_attrs,
        init_self_attrs=init_self_attrs, init_node=init_node,
        is_abstract=is_abstract,
    )


def _idle_traffic(method: ast.FunctionDef) -> Iterable[tuple[int, str]]:
    """``(line, field)`` of each traffic field a ``BatchPlan(...)`` call
    in *method* passes."""
    for node in ast.walk(method):
        if not (isinstance(node, ast.Call)
                and astutil.called_name(node) == "BatchPlan"):
            continue
        for keyword in node.keywords:
            if keyword.arg in _IDLE_TRAFFIC_FIELDS:
                yield node.lineno, keyword.arg
        for name, position in _IDLE_TRAFFIC_FIELDS.items():
            if position < len(node.args):
                yield node.lineno, name


def _self_writes(method: ast.FunctionDef) -> Iterable[tuple[int, str]]:
    """``(line, source)`` of each store into ``self`` state in *method*:
    attribute assignment or deletion, and item or attribute stores
    through a ``self.*`` attribute."""
    for node in ast.walk(method):
        if not (isinstance(node, (ast.Attribute, ast.Subscript))
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            continue
        root = node.value
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        if isinstance(root, ast.Name) and root.id == "self":
            yield node.lineno, ast.unparse(node)


def _exported_names(tree: ast.Module) -> set[str]:
    """Names a package ``__init__`` re-exports: ``__all__`` strings plus
    everything it imports or assigns at module level."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(
                (alias.asname or alias.name).split(".")[0]
                for alias in node.names
            )
        elif isinstance(node, ast.Assign):
            names.update(
                target.id for target in node.targets
                if isinstance(target, ast.Name) and target.id != "__all__"
            )
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    names.add(element.value)
    return names


@register
class StrategyConformance(Rule):
    """Concrete strategies implement the interface and stay cacheable."""

    rule_id = "ARC004"
    category = "api-conformance"
    invariant = (
        "every concrete AtomicStrategy is exported, implements plan_batch "
        "or plan_shape, binds a report name, and takes scalar-only "
        "constructor parameters so strategy_fingerprint can always key it; "
        "idle_plan carries no traffic and plan_shape writes no self state"
    )

    def check_module(
        self, module: "ModuleInfo", ctx: "LintContext"
    ) -> Iterable[Finding]:
        classes: dict[str, _ClassInfo] = ctx.shared.setdefault(
            "ARC004.classes", {}
        )
        exports: dict[str, _PackageExports] = ctx.shared.setdefault(
            "ARC004.exports", {}
        )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                info = _collect_class(module, node)
                # First definition wins; duplicate class names across
                # modules are rare and resolving them needs import
                # tracking this rule does not attempt.
                classes.setdefault(node.name, info)
        if module.rel_parts[-1] == "__init__.py" and len(module.rel_parts) > 1:
            package_dir = "/".join(module.rel_parts[:-1])
            exports[package_dir] = _PackageExports(
                module=module, names=_exported_names(module.tree)
            )
        return ()

    def finalize(self, ctx: "LintContext") -> Iterable[Finding]:
        classes: dict[str, _ClassInfo] = ctx.shared.get("ARC004.classes", {})
        exports: dict[str, _PackageExports] = ctx.shared.get(
            "ARC004.exports", {}
        )
        for name in sorted(classes):
            info = classes[name]
            if name == _ROOT_CLASS:
                continue
            chain = self._chain(info, classes)
            if chain is None:
                continue
            # Method bodies are checked where they are defined, internal
            # and abstract bases included.
            yield from self._check_methods(info)
            if name.startswith("_") or info.is_abstract:
                continue
            yield from self._check_interface(info, chain)
            yield from self._check_ctor(info)
            yield from self._check_export(info, exports)

    def _chain(
        self, info: _ClassInfo, classes: dict[str, _ClassInfo]
    ) -> "list[_ClassInfo] | None":
        """Inheritance chain up to (excluding) ``AtomicStrategy``, or
        ``None`` when the class does not derive from it."""
        chain: list[_ClassInfo] = []
        cursor = info
        seen = {info.name}
        while True:
            chain.append(cursor)
            if _ROOT_CLASS in cursor.bases:
                return chain
            parents = [
                classes[base] for base in cursor.bases
                if base in classes and base not in seen
            ]
            if not parents:
                return None
            cursor = parents[0]
            seen.add(cursor.name)

    def _check_interface(
        self, info: _ClassInfo, chain: list[_ClassInfo]
    ) -> Iterable[Finding]:
        if not any("plan_batch" in cls.methods or "plan_shape" in cls.methods
                   for cls in chain):
            yield self.finding(
                info.module, info.lineno,
                f"strategy {info.name} never implements plan_batch or "
                "plan_shape; the engine cannot simulate it",
            )
        has_name = any(
            "name" in cls.class_attrs or "name" in cls.init_self_attrs
            for cls in chain
        )
        if not has_name:
            yield self.finding(
                info.module, info.lineno,
                f"strategy {info.name} never binds a report `name`; the "
                "runner, report tables and cache keys all key on it",
            )

    def _check_methods(self, info: _ClassInfo) -> Iterable[Finding]:
        idle = info.methods.get("idle_plan")
        if idle is not None:
            for line, name in _idle_traffic(idle):
                yield self.finding(
                    info.module, line,
                    f"{info.name}.idle_plan builds a BatchPlan with "
                    f"`{name}`; an idle plan may spend only sub-core "
                    "cycles, and the engine rejects it at run time",
                )
        shape = info.methods.get("plan_shape")
        if shape is not None:
            for line, target in _self_writes(shape):
                yield self.finding(
                    info.module, line,
                    f"{info.name}.plan_shape writes `{target}`; the "
                    "engine reuses one template per batch shape, so the "
                    "write would be skipped for every later batch of it",
                )

    def _check_ctor(self, info: _ClassInfo) -> Iterable[Finding]:
        init = info.init_node
        if init is None:
            return
        args = init.args
        positional = args.posonlyargs + args.args + args.kwonlyargs
        for arg in positional:
            if arg.arg == "self" or arg.annotation is None:
                continue
            names = set(astutil.identifier_names(arg.annotation))
            bad = sorted(names & _NON_SCALAR_ANNOTATIONS)
            if bad:
                yield self.finding(
                    info.module, init.lineno,
                    f"strategy {info.name}.__init__ parameter "
                    f"`{arg.arg}` is annotated non-scalar "
                    f"({', '.join(bad)}); strategy_fingerprint only keys "
                    "scalar constructor parameters, so cached results "
                    "would collide",
                )
        defaults = list(args.defaults) + list(args.kw_defaults)
        for default in defaults:
            if default is None:
                continue
            if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.Tuple,
                                    ast.Call)):
                yield self.finding(
                    info.module, init.lineno,
                    f"strategy {info.name}.__init__ has a non-scalar "
                    "default value; constructor parameters must be "
                    "scalars for the cache key scheme",
                )

    def _check_export(
        self, info: _ClassInfo, exports: dict[str, _PackageExports]
    ) -> Iterable[Finding]:
        parts = info.module.rel_parts
        if parts[-1] == "__init__.py":
            return
        package_dir = "/".join(parts[:-1])
        package = exports.get(package_dir)
        if package is None:
            return
        if info.name not in package.names:
            yield self.finding(
                info.module, info.lineno,
                f"strategy {info.name} is not exported from "
                f"{package_dir}/__init__.py; the factory registry and "
                "`repro list` cannot reach it",
            )
