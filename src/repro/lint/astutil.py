"""Shared AST helpers used by the arclint rules.

These keep the rules themselves about *invariants*, not AST plumbing:
resolving imported names to qualified origins, recognising dataclasses and
their fields, and collecting the identifier terminals of an expression.
"""

from __future__ import annotations

import ast
from typing import Iterator

__all__ = [
    "import_map",
    "dotted_name",
    "is_dataclass_def",
    "dataclass_fields",
    "identifier_names",
    "called_name",
    "qualified_call",
]


def import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> qualified origin for every import in *tree*.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter`` maps ``perf_counter -> time.perf_counter``.  Relative
    imports keep their module path without resolving the package.
    """
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                mapping[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                mapping[local] = f"{node.module}.{alias.name}"
    return mapping


def dotted_name(node: ast.AST) -> "str | None":
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def qualified_call(node: ast.Call, imports: dict[str, str]) -> "str | None":
    """Fully qualified name of *node*'s callee, resolving import aliases.

    ``np.random.default_rng(...)`` with ``np -> numpy`` resolves to
    ``numpy.random.default_rng``; a bare ``perf_counter()`` imported from
    :mod:`time` resolves to ``time.perf_counter``.
    """
    name = dotted_name(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = imports.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin


def called_name(node: ast.Call) -> "str | None":
    """Last component of the callee's dotted name (``default_rng``)."""
    name = dotted_name(node.func)
    return name.rpartition(".")[2] if name else None


def is_dataclass_def(node: ast.ClassDef) -> bool:
    """Whether *node* carries a ``@dataclass`` / ``@dataclasses.dataclass``
    decorator (bare or called)."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target)
        if name and name.rpartition(".")[2] == "dataclass":
            return True
    return False


def dataclass_fields(node: ast.ClassDef) -> dict[str, int]:
    """Field name -> definition line for a dataclass body.

    Covers annotated assignments at class-body level, excluding
    ``ClassVar`` annotations (not fields per the dataclass protocol).
    """
    out: dict[str, int] = {}
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        annotation = ast.unparse(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        out[stmt.target.id] = stmt.lineno
    return out


def identifier_names(node: ast.AST) -> Iterator[str]:
    """Every Name id and Attribute attr inside *node* (terminals only)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr

