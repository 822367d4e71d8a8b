"""Rule base class and registry.

A rule is a class with a stable ``rule_id`` (``ARC001`` ...), a default
severity, and two hooks:

* :meth:`Rule.check_module` -- called once per parsed module, yields
  findings local to that module;
* :meth:`Rule.finalize` -- called once after every module has been
  visited, for cross-module invariants (export completeness, key-schema
  vs. dataclass cross-checks).

Rules register themselves with :func:`register`; :func:`all_rules`
instantiates the registry in rule-id order so runs are deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.lint.findings import Finding, Severity

if TYPE_CHECKING:
    from repro.lint.engine import LintContext, ModuleInfo

__all__ = ["Rule", "register", "all_rules", "rule_ids"]


class Rule:
    """Base class for one invariant checker."""

    #: Stable identifier used in reports and suppressions.
    rule_id: str = "ARC000"
    #: Default severity of this rule's findings.
    severity: Severity = Severity.ERROR
    #: One-line statement of the protected invariant (shown in ``--help``
    #: style listings and the docs).
    invariant: str = ""
    #: Rule family, surfaced as a SARIF rule property so code-scanning
    #: dashboards can slice findings (``determinism``,
    #: ``cache-integrity``, ``api-conformance``).
    category: str = "domain"
    #: Restrict the rule to modules inside these top-level packages
    #: (relative to the lint root); ``None`` means every module.
    packages: "tuple[str, ...] | None" = None

    def applies_to(self, module: "ModuleInfo") -> bool:
        """Whether *module* is in this rule's scope."""
        if self.packages is None:
            return True
        return any(part in self.packages for part in module.rel_parts[:-1])

    def check_module(
        self, module: "ModuleInfo", ctx: "LintContext"
    ) -> Iterable[Finding]:
        """Per-module findings; also the place to record cross-module
        facts on *ctx* for :meth:`finalize`."""
        return ()

    def finalize(self, ctx: "LintContext") -> Iterable[Finding]:
        """Findings that need the whole tree (called once, last)."""
        return ()

    def finding(
        self,
        module: "ModuleInfo",
        line: int,
        message: str,
        severity: "Severity | None" = None,
    ) -> Finding:
        """Build a finding anchored at *line* of *module*.

        The occurrence counter is tracked per (rule, path, snippet,
        message) on the module so repeated identical violations get
        distinct, stable ids.
        """
        snippet = module.line_text(line)
        key = (self.rule_id, module.rel_path, snippet, message)
        occurrence = module.occurrences.get(key, 0)
        module.occurrences[key] = occurrence + 1
        return Finding(
            rule=self.rule_id,
            severity=severity or self.severity,
            path=module.rel_path,
            line=line,
            message=message,
            snippet=snippet,
            occurrence=occurrence,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding *rule_cls* to the global registry."""
    rule_id = rule_cls.rule_id
    existing = _REGISTRY.get(rule_id)
    if existing is not None and existing is not rule_cls:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    _REGISTRY[rule_id] = rule_cls
    return rule_cls


def all_rules() -> Iterator[Rule]:
    """Fresh instances of every registered rule, in rule-id order."""
    for rule_id in sorted(_REGISTRY):
        yield _REGISTRY[rule_id]()


def rule_ids() -> list[str]:
    """Sorted ids of every registered rule."""
    return sorted(_REGISTRY)
