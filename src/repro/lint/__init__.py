"""arclint: domain-invariant static analysis for the reproduction.

The tier-1 test suite checks *numbers*; this package checks the
*invariants those numbers silently depend on*, such as a cache key
that misses a config field.  An AST-based rule framework
(:mod:`repro.lint.registry`, :mod:`repro.lint.engine`) runs three
domain rules (:mod:`repro.lint.rules`):

========  ===========================================================
ARC001    fingerprint-completeness: every dataclass field reachable
          from the fingerprint / key schema caching its results
ARC002    determinism: no global RNG, wall clocks or unordered
          iteration inside ``repro/{core,gpu,trace}``
ARC004    strategy-conformance: concrete strategies are exported,
          implement the interface, and stay cacheable (scalar ctors)
========  ===========================================================

The other properties arclint once checked are held by tests and
runtime checks instead: unit conversion by the preset cost-model test
and the cycle pins, the heap-tie order by the engine's
``REPRO_SANITIZE=1`` assert, cache-key taint by the renamed-trace
result test, bounded pool waits by the broker's chaos and deadline
tests, and process and event-loop safety by the ``REPRO_SANITIZE``
runtime sanitizer (:mod:`repro.obs.sanitize`).  Retired rule ids are
not reused.

A finding is suppressed inline with ``# arclint: disable=ARC001`` (and
a justification) on the flagged line; that is the one escape.  Reports
render as text, JSON, or SARIF 2.1.0 (:mod:`repro.lint.sarif`) for
code-scanning upload.  Entry point: ``repro lint`` (see
:mod:`repro.cli`) or :func:`run_lint`.
"""

from repro.lint.engine import LintReport, run_lint
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, all_rules, register, rule_ids

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "Severity",
    "all_rules",
    "register",
    "rule_ids",
    "run_lint",
]
