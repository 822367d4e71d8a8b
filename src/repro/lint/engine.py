"""arclint driver: parse a tree, run every rule, apply suppressions,
and package the outcome as a :class:`LintReport`.

The pipeline per run:

1. collect ``.py`` files under the given paths (sorted, so output and
   occurrence counters are deterministic);
2. parse each into a :class:`ModuleInfo` (source, AST, per-line
   suppressions); files that fail to parse yield an ``ARC000`` finding
   instead of aborting the run;
3. run every registered rule: per-module checks first, then the
   cross-module :meth:`~repro.lint.registry.Rule.finalize` hooks;
4. set aside findings suppressed by an inline
   ``# arclint: disable=RULE`` comment on the flagged line.

Every finding that survives step 4 is *new* and fails the run.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.lint.findings import Finding, Severity
from repro.lint.registry import all_rules

__all__ = [
    "ModuleInfo",
    "LintContext",
    "LintReport",
    "collect_files",
    "parse_module",
    "run_lint",
]

#: Inline suppression: ``# arclint: disable=ARC002`` (comma-separated ids,
#: or ``all``) anywhere on the flagged line.
_SUPPRESS_RE = re.compile(r"#\s*arclint:\s*disable=([A-Za-z0-9_,\s]*)")

#: Rule id for files the parser rejects.
PARSE_ERROR_RULE = "ARC000"


def _ordered(findings: "list[Finding]") -> "list[Finding]":
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


class ModuleInfo:
    """One parsed source file plus everything rules need to report on it."""

    def __init__(self, rel_path: str, source: str, tree: "ast.Module | None"):
        self.rel_path = rel_path
        self.rel_parts = tuple(Path(rel_path).parts)
        self.lines = source.splitlines()
        self.tree = tree
        #: (rule, path, snippet) -> occurrences handed out so far.
        self.occurrences: dict[tuple[str, str, str], int] = {}
        self.suppressions = self._scan_suppressions()

    def line_text(self, line: int) -> str:
        """Stripped text of 1-based *line* ('' when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def _scan_suppressions(self) -> dict[int, set[str]]:
        out: dict[int, set[str]] = {}
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match:
                rules = {
                    token.strip()
                    for token in match.group(1).split(",")
                    if token.strip()
                }
                out[lineno] = rules or {"all"}
        return out

    def is_suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line)
        if not rules:
            return False
        return "all" in rules or finding.rule in rules


class LintContext:
    """Run-wide scratch space: facts a rule records in
    :meth:`~repro.lint.registry.Rule.check_module` for its
    :meth:`~repro.lint.registry.Rule.finalize`, namespaced by rule id."""

    def __init__(self):
        self.shared: dict[str, object] = {}


@dataclass
class LintReport:
    """Everything one run produced."""

    new: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        """1 when the run must fail: any unsuppressed finding."""
        return 1 if self.new else 0

    def summary_line(self) -> str:
        return (
            f"{self.files_checked} files checked: "
            f"{len(self.new)} new finding(s), "
            f"{len(self.suppressed)} suppressed"
        )

    def render_text(self) -> str:
        """Human-readable report (what ``repro lint`` prints)."""
        blocks = [finding.render() for finding in _ordered(self.new)]
        blocks.append(self.summary_line())
        return "\n".join(blocks)

    def to_dict(self) -> dict:
        """The ``--format json`` schema (stable, versioned)."""
        return {
            "version": 1,
            "summary": {
                "files_checked": self.files_checked,
                "new": len(self.new),
                "suppressed": len(self.suppressed),
                "exit_code": self.exit_code,
            },
            "findings": [f.to_dict() for f in _ordered(self.new)],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_sarif(self) -> str:
        """SARIF 2.1.0 document (``--format sarif``), for code-scanning
        upload; see :mod:`repro.lint.sarif`."""
        from repro.lint.sarif import report_to_sarif

        return json.dumps(report_to_sarif(self), indent=2, sort_keys=True)


def _package_root(directory: Path) -> Path:
    """First ancestor of *directory* that is not a python package.

    A single-file argument must keep its package context -- rules scoped
    to ``repro/{core,gpu,trace}`` match on the *relative* path, so
    rooting ``.../repro/core/engine.py`` at ``core/`` would silently take
    it out of scope.  Ascending past every ``__init__.py`` restores the
    same relative parts a directory invocation would produce.
    """
    while (directory / "__init__.py").exists() and directory.parent != directory:
        directory = directory.parent
    return directory


def collect_files(paths: Sequence["str | Path"]) -> list[tuple[Path, Path]]:
    """(file, lint-root) pairs for every ``.py`` under *paths*, sorted.

    A directory argument becomes the lint root of its own files; a single
    file is rooted at its enclosing package tree's parent (see
    :func:`_package_root`), so package-scoped rules apply identically
    whether a file is linted alone or as part of its tree.
    """
    out: list[tuple[Path, Path]] = []
    for raw in paths:
        path = Path(raw).resolve()
        if path.is_dir():
            out.extend((file, path) for file in sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append((path, _package_root(path.parent)))
        else:
            raise FileNotFoundError(f"no python source at {raw}")
    return out


def parse_module(path: Path, root: Path) -> "tuple[ModuleInfo, Finding | None]":
    """Parse one file; on a syntax error return an ``ARC000`` finding."""
    rel_path = path.relative_to(root).as_posix()
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        module = ModuleInfo(rel_path, source, None)
        line = exc.lineno or 1
        return module, Finding(
            rule=PARSE_ERROR_RULE,
            severity=Severity.ERROR,
            path=rel_path,
            line=line,
            message=f"file does not parse: {exc.msg}",
            snippet=module.line_text(line),
        )
    return ModuleInfo(rel_path, source, tree), None


def run_lint(paths: Sequence["str | Path"]) -> LintReport:
    """Run every registered rule over *paths*."""
    # Importing the rules package registers the rule classes.
    import repro.lint.rules  # noqa: F401  (registration side effect)

    modules: list[ModuleInfo] = []
    raw_findings: list[Finding] = []
    for path, root in collect_files(paths):
        module, error = parse_module(path, root)
        if error is not None:
            raw_findings.append(error)
            continue
        modules.append(module)

    ctx = LintContext()
    for rule in all_rules():
        for module in modules:
            if rule.applies_to(module):
                raw_findings.extend(rule.check_module(module, ctx))
        raw_findings.extend(rule.finalize(ctx))

    by_path = {module.rel_path: module for module in modules}
    report = LintReport(files_checked=len(modules))
    for finding in raw_findings:
        module = by_path.get(finding.path)
        if module is not None and module.is_suppressed(finding):
            report.suppressed.append(finding)
        else:
            report.new.append(finding)
    return report
