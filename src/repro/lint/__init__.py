"""arclint: domain-invariant static analysis for the reproduction.

The tier-1 test suite checks *numbers*; this package checks the
*invariants those numbers silently depend on* -- the bug class PR 1's
review cycles were spent on.  An AST-based rule framework
(:mod:`repro.lint.registry`, :mod:`repro.lint.engine`) runs eight
domain rules (:mod:`repro.lint.rules`):

========  ===========================================================
ARC001    fingerprint-completeness: every dataclass field reachable
          from the fingerprint / key schema caching its results
ARC002    determinism: no global RNG, wall clocks or unordered
          iteration inside ``repro/{core,gpu,trace}``
ARC003    unit-safety: ns- and cycle-domain values only combine
          through an explicit ``clock_ghz`` conversion
          (flow-sensitive since v2)
ARC004    strategy-conformance: concrete strategies are exported,
          implement the interface, and stay cacheable (scalar ctors)
ARC005    resilient-execution: experiment workers are never awaited
          without a timeout
ARC006    interprocedural unit contracts: ns values never reach
          cycles-typed parameters/returns across call chains
ARC007    event-tie determinism: engine heap events carry a monotonic
          sequence tiebreaker (runtime twin: ``REPRO_SANITIZE=1``)
ARC008    cache-key taint: fields excluded from a fingerprint are
          never read in result-influencing engine positions
========  ===========================================================

ARC003/006/008 are built on a project-wide dataflow layer
(:mod:`repro.lint.dataflow`): symbol table, call graph, and an abstract
interpreter propagating unit tags through assignments, calls and
dataclass fields to a fixpoint.  The same layer's import graph powers
``repro lint --changed``, which re-checks only the files a diff touched
plus their transitive importers.

Which files several processes write, and which frames may block the
service's event loop, are not lint rules: the ``REPRO_SANITIZE``
runtime sanitizer (:mod:`repro.obs.sanitize`) records both and checks
them against the tables it declares.

Findings are suppressed inline (``# arclint: disable=ARC001``) or
grandfathered in a checked-in, content-addressed baseline
(:mod:`repro.lint.baseline`).  Reports render as text, JSON, or SARIF
2.1.0 (:mod:`repro.lint.sarif`) for code-scanning upload.  Entry point:
``repro lint`` (see :mod:`repro.cli`) or :func:`run_lint`.
"""

from repro.lint.baseline import (
    load_baseline,
    refresh_baseline,
    write_baseline,
)
from repro.lint.engine import (
    LintConfig,
    LintReport,
    run_lint,
)
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, all_rules, register, rule_ids

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "Rule",
    "Severity",
    "all_rules",
    "load_baseline",
    "refresh_baseline",
    "register",
    "rule_ids",
    "run_lint",
    "write_baseline",
]
