"""ARC001: every dataclass field must be reachable from its fingerprint.

The PR 1 stale-cache incident: a cache key schema enumerated dataclass
fields by hand, a later field was added to the dataclass but not the
schema, and the cache silently served results computed under different
configs.  This rule makes that divergence a build failure, two ways:

1. **Explicit fingerprint methods.**  A dataclass method named
   ``fingerprint`` or ``to_dict`` that enumerates fields by hand
   (``self.x`` reads / ``"x"`` literals) must mention *every* field.
   Methods built on a generic enumerator (``dataclasses.asdict``,
   ``dataclasses.fields``, ``vars``, or delegating to ``self.to_dict()``)
   are complete by construction and pass.

2. **Key-schema constants.**  A module-level ``*_FIELDS`` tuple/list of
   field-name strings (the ``diskcache._KEY_FIELDS`` style) is
   cross-checked against the dataclass it names: entries must exist as
   fields, and no field may be absent from the schema.  The schema is
   matched to the dataclass whose field set it overlaps most, so the
   check follows renames without explicit wiring.

Intentional exclusions (a cosmetic ``name`` that must not invalidate
caches) are recorded with an inline ``# arclint: disable=ARC001`` on the
method definition line, next to the docstring that justifies them.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from repro.lint import astutil
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

if TYPE_CHECKING:
    from repro.lint.engine import LintContext, ModuleInfo

__all__ = ["FingerprintCompleteness"]

#: Methods whose body is expected to reach every field.
_FINGERPRINT_METHODS = ("fingerprint", "to_dict")

#: Callees that enumerate fields generically (complete by construction).
_GENERIC_ENUMERATORS = {"asdict", "astuple", "fields", "vars"}


def _is_schema_name(name: str) -> bool:
    return name.endswith("_FIELDS")


def _schema_entries(node: ast.AST) -> "list[str] | None":
    """String entries of a tuple/list/set display, or ``None``."""
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    entries = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant)
                and isinstance(element.value, str)):
            return None
        entries.append(element.value)
    return entries


def _uses_generic_enumerator(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        name = astutil.called_name(node)
        if name in _GENERIC_ENUMERATORS:
            return True
        # Delegation to the (already checked) to_dict of the same object.
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "to_dict"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"):
            return True
    return False


def _referenced_fields(func: ast.FunctionDef, fields: set[str]) -> set[str]:
    """Fields the method body mentions, via ``self.x`` or a ``"x"`` literal
    (dict keys, ``getattr(self, "x")``)."""
    seen: set[str] = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in fields):
            seen.add(node.attr)
        elif (isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in fields):
            seen.add(node.value)
    return seen


@register
class FingerprintCompleteness(Rule):
    """Fingerprints and key schemas must cover every dataclass field."""

    rule_id = "ARC001"
    category = "cache-integrity"
    invariant = (
        "every dataclass field is reachable from the fingerprint / key "
        "schema that caches results computed from it"
    )

    def check_module(
        self, module: "ModuleInfo", ctx: "LintContext"
    ) -> Iterable[Finding]:
        classes = ctx.shared.setdefault("ARC001.dataclasses", {})
        schemas = ctx.shared.setdefault("ARC001.schemas", [])
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and astutil.is_dataclass_def(node):
                fields = {
                    name: line
                    for name, line in astutil.dataclass_fields(node).items()
                    if not name.startswith("_")
                }
                classes[node.name] = (module.rel_path, set(fields))
                yield from self._check_methods(module, node, set(fields))
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and _is_schema_name(target.id):
                    entries = _schema_entries(node.value)
                    if entries is not None:
                        schemas.append(
                            (module, node.lineno, target.id, entries)
                        )

    def _check_methods(
        self, module: "ModuleInfo", node: ast.ClassDef, fields: set[str]
    ) -> Iterable[Finding]:
        if not fields:
            return
        for stmt in node.body:
            if not (isinstance(stmt, ast.FunctionDef)
                    and stmt.name in _FINGERPRINT_METHODS):
                continue
            if _uses_generic_enumerator(stmt):
                continue
            missing = fields - _referenced_fields(stmt, fields)
            if missing:
                yield self.finding(
                    module, stmt.lineno,
                    f"{node.name}.{stmt.name} never reaches field(s) "
                    f"{', '.join(sorted(missing))}; results keyed by it can "
                    "be served for inputs they were not produced with "
                    "(enumerate the fields, use dataclasses.asdict/fields, "
                    "or suppress with a justification if the exclusion is "
                    "intentional)",
                )

    def finalize(self, ctx: "LintContext") -> Iterable[Finding]:
        classes: dict = ctx.shared.get("ARC001.dataclasses", {})
        for module, lineno, name, entries in ctx.shared.get(
            "ARC001.schemas", []
        ):
            schema = set(entries)
            best_name, best_fields, best_overlap = None, set(), 0
            for cls_name, (_, fields) in sorted(classes.items()):
                overlap = len(schema & fields)
                if overlap > best_overlap:
                    best_name, best_fields, best_overlap = (
                        cls_name, fields, overlap
                    )
            # Require a majority overlap before treating the constant as a
            # key schema of that class; unrelated string tuples stay quiet.
            if best_name is None or best_overlap * 2 < len(schema):
                continue
            missing = best_fields - schema
            unknown = schema - best_fields
            if missing:
                yield self.finding(
                    module, lineno,
                    f"key schema {name} omits field(s) "
                    f"{', '.join(sorted(missing))} of {best_name}; cache "
                    "keys built from it under-hash the config and can "
                    "serve stale results",
                )
            if unknown:
                yield self.finding(
                    module, lineno,
                    f"key schema {name} lists "
                    f"{', '.join(sorted(unknown))} which are not field(s) "
                    f"of {best_name}; the schema is stale",
                )
