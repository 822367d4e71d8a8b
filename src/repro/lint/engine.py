"""arclint driver: parse a tree, run every rule, apply suppressions and
the baseline, and package the outcome as a :class:`LintReport`.

The pipeline per run:

1. collect ``.py`` files under the given paths (sorted, so output and
   occurrence counters are deterministic);
2. parse each into a :class:`ModuleInfo` (source, AST, per-line
   suppressions); files that fail to parse yield an ``ARC000`` finding
   instead of aborting the run;
3. run every registered rule: per-module checks first, then the
   cross-module :meth:`~repro.lint.registry.Rule.finalize` hooks;
4. drop findings suppressed by an inline ``# arclint: disable=RULE``
   comment on the flagged line;
5. split the remainder against the baseline file into *new* vs
   *grandfathered*, flagging stale baseline entries.

Only step 5's outcome decides the exit code: new findings or stale
baseline entries fail, grandfathered and suppressed ones do not.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.lint.baseline import diff_against_baseline, load_baseline
from repro.lint.findings import Finding, Severity
from repro.lint.registry import all_rules

__all__ = [
    "LintConfig",
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


@dataclass(frozen=True)
class LintConfig:
    """Knobs shared by every rule in one run."""

    #: Package directories whose modules feed simulation or fingerprint
    #: state; determinism/conformance rules scope themselves to these.
    engine_packages: tuple[str, ...] = ("core", "gpu", "trace")
    #: Package directories that drive experiment execution (worker
    #: pools, futures); the resilience rule scopes itself to these.
    #: The service broker owns the one worker pool that matrix runs and
    #: daemon requests share; ``experiments`` holds its worker tasks.
    experiment_packages: tuple[str, ...] = ("experiments", "service")
    #: Identifier suffixes marking nanosecond- and cycle-valued bindings.
    ns_suffixes: tuple[str, ...] = ("_ns", "_NS")
    cycle_suffixes: tuple[str, ...] = ("_cycles",)
    #: Names whose presence in a term marks a clock-domain conversion.
    clock_names: tuple[str, ...] = ("clock_ghz",)


class ModuleInfo:
    """One parsed source file plus everything rules need to report on it."""

    def __init__(self, path: Path, rel_path: str, source: str,
                 tree: "ast.Module | None"):
        self.path = path
        self.rel_path = rel_path
        self.rel_parts = tuple(Path(rel_path).parts)
        self.source = source
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
    """Run-wide state rules use to communicate across modules."""

    def __init__(self, config: LintConfig, modules: "list[ModuleInfo]"):
        self.config = config
        self.modules = modules
        #: Free-form scratch space, namespaced by rule id.
        self.shared: dict[str, object] = {}


@dataclass
class LintReport:
    """Everything one run produced, pre-split against the baseline."""

    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    stale_baseline: list[dict] = field(default_factory=list)
    files_checked: int = 0
    #: Lint-root-relative paths actually checked (equals every parsed
    #: file on a full run; the changed-set expansion on ``--changed``).
    checked_paths: list[str] = field(default_factory=list)

    @property
    def findings(self) -> list[Finding]:
        """Every unsuppressed finding (new + grandfathered)."""
        return self.new + self.baselined

    @property
    def exit_code(self) -> int:
        """1 when the run must fail: new findings or a stale baseline."""
        return 1 if self.new or self.stale_baseline else 0

    def summary_line(self) -> str:
        return (
            f"{self.files_checked} files checked: "
            f"{len(self.new)} new finding(s), "
            f"{len(self.baselined)} baselined, "
            f"{len(self.suppressed)} suppressed, "
            f"{len(self.stale_baseline)} stale baseline entr(ies)"
        )

    def render_text(self) -> str:
        """Human-readable report (what ``repro lint`` prints)."""
        blocks: list[str] = []
        for finding in sorted(
            self.new, key=lambda f: (f.path, f.line, f.rule)
        ):
            blocks.append(finding.render())
        for entry in self.stale_baseline:
            blocks.append(
                f"stale baseline entry {entry['id']} "
                f"({entry.get('rule', '?')} in {entry.get('path', '?')}): "
                "the flagged line changed; rerun `repro lint --fix-baseline`"
            )
        blocks.append(self.summary_line())
        return "\n".join(blocks)

    def to_dict(self) -> dict:
        """The ``--format json`` schema (stable, versioned)."""
        return {
            "version": 1,
            "summary": {
                "files_checked": self.files_checked,
                "checked_paths": self.checked_paths,
                "new": len(self.new),
                "baselined": len(self.baselined),
                "suppressed": len(self.suppressed),
                "stale_baseline": len(self.stale_baseline),
                "exit_code": self.exit_code,
            },
            "findings": [
                f.to_dict()
                for f in sorted(
                    self.new, key=lambda f: (f.path, f.line, f.rule)
                )
            ],
            "baselined": [
                f.to_dict()
                for f in sorted(
                    self.baselined, key=lambda f: (f.path, f.line, f.rule)
                )
            ],
            "stale_baseline": self.stale_baseline,
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
        error = None
    except SyntaxError as exc:
        tree = None
        module = ModuleInfo(path, rel_path, source, None)
        error = Finding(
            rule=PARSE_ERROR_RULE,
            severity=Severity.ERROR,
            path=rel_path,
            line=exc.lineno or 1,
            message=f"file does not parse: {exc.msg}",
            snippet=module.line_text(exc.lineno or 1),
        )
        return module, error
    return ModuleInfo(path, rel_path, source, tree), error


def run_lint(
    paths: Sequence["str | Path"],
    baseline_path: "str | Path | None" = None,
    config: "LintConfig | None" = None,
    restrict_to: "Sequence[str | Path] | None" = None,
) -> LintReport:
    """Run every registered rule over *paths* and diff the baseline.

    With *restrict_to* (a collection of changed file paths), the whole
    tree is still parsed and analyzed -- the dataflow layer and
    cross-module rules need the complete picture to stay sound -- but
    per-module checks and reported findings are limited to the changed
    files plus every module that (transitively) imports one of them.
    The baseline's stale-entry check is likewise limited to that set: a
    partial run cannot know whether entries for unvisited files still
    fire.
    """
    # Importing the rules package registers the rule classes.
    import repro.lint.rules  # noqa: F401  (registration side effect)

    config = config or LintConfig()
    modules: list[ModuleInfo] = []
    parse_errors: list[tuple[Path, Finding]] = []
    for path, root in collect_files(paths):
        module, error = parse_module(path, root)
        if error is not None:
            parse_errors.append((path.resolve(), error))
            continue
        modules.append(module)

    ctx = LintContext(config, modules)

    selected: "set[int] | None" = None
    if restrict_to is not None:
        changed = {Path(p).resolve() for p in restrict_to}
        selected = _select_modules(ctx, changed)
        parse_errors = [
            (path, error) for path, error in parse_errors
            if path in changed
        ]

    raw_findings: list[Finding] = [error for _, error in parse_errors]
    checked = [
        module for module in modules
        if selected is None or id(module) in selected
    ]
    for rule in all_rules():
        rule.configure(config)
        # Rules whose finalize() cross-references facts from the whole
        # tree scan every module even in a restricted run; their
        # findings are filtered back to the selection below.
        scan = (modules if selected is not None and rule.needs_all_modules
                else checked)
        for module in scan:
            if rule.applies_to(module):
                raw_findings.extend(rule.check_module(module, ctx))
        raw_findings.extend(rule.finalize(ctx))

    checked_paths = {module.rel_path for module in checked} | {
        error.path for _, error in parse_errors
    }
    if selected is not None:
        raw_findings = [
            finding for finding in raw_findings
            if finding.path in checked_paths
        ]

    by_path = {module.rel_path: module for module in modules}
    report = LintReport(files_checked=len(checked))
    report.checked_paths = sorted(checked_paths)
    kept: list[Finding] = []
    for finding in raw_findings:
        module = by_path.get(finding.path)
        if module is not None and module.is_suppressed(finding):
            report.suppressed.append(finding)
        else:
            kept.append(finding)

    baseline = load_baseline(baseline_path)
    report.new, report.baselined, report.stale_baseline = (
        diff_against_baseline(
            kept, baseline,
            checked_paths=checked_paths if selected is not None else None,
        )
    )
    return report


def _select_modules(ctx: LintContext, changed: "set[Path]") -> set[int]:
    """ids of the modules a change set makes worth re-checking."""
    from repro.lint.dataflow import (
        analysis_for,
        module_imports,
        reverse_dependents,
    )

    table = analysis_for(ctx).table
    roots = {
        table.name_of(module) for module in ctx.modules
        if module.path.resolve() in changed
    }
    if not roots:
        return set()
    names = reverse_dependents(module_imports(table), roots)
    return {id(table.module_names[name]) for name in names}
