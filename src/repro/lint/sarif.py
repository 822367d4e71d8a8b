"""SARIF 2.1.0 output: arclint findings as a code-scanning document.

SARIF (Static Analysis Results Interchange Format) is what GitHub code
scanning ingests; ``repro lint --format sarif`` emits one run with:

* the full rule catalog under ``tool.driver.rules`` (id, invariant,
  default level), so viewers can show what each ``ARC00x`` protects;
* one ``result`` per finding.  *New* findings carry no suppressions and
  fail CI as usual; inline-suppressed ones are included with an
  ``inSource`` suppression, so the dashboard shows accepted exceptions
  without alerting on them;
* the finding's content id as a ``partialFingerprints`` entry, which
  keeps GitHub's alert identity stable across unrelated line churn.

The document is rendered with sorted keys and sorted results, so
identical findings produce byte-identical SARIF -- diffable in CI
artifacts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.lint.findings import Finding
from repro.lint.registry import all_rules

if TYPE_CHECKING:
    from repro.lint.engine import LintReport

__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "report_to_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_catalog() -> list[dict]:
    rules = []
    for rule in all_rules():
        rules.append({
            "id": rule.rule_id,
            "name": type(rule).__name__,
            "shortDescription": {"text": rule.invariant},
            "defaultConfiguration": {"level": rule.severity.value},
            "properties": {"category": rule.category},
        })
    return rules


def _result(finding: Finding, suppression_kind: "str | None") -> dict:
    result = {
        "ruleId": finding.rule,
        "level": finding.severity.value,
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path.replace("\\", "/"),
                },
                "region": {"startLine": max(finding.line, 1)},
            },
        }],
        "partialFingerprints": {
            "arclintContentId/v1": finding.content_id,
        },
    }
    if suppression_kind is not None:
        result["suppressions"] = [{"kind": suppression_kind}]
    return result


def _sorted(findings: Iterable[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule,
                                           f.occurrence))


def report_to_sarif(report: "LintReport") -> dict:
    """*report* as a SARIF 2.1.0 document (a plain dict, JSON-ready)."""
    results = [_result(f, None) for f in _sorted(report.new)]
    results += [_result(f, "inSource") for f in _sorted(report.suppressed)]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "arclint",
                    "rules": _rule_catalog(),
                },
            },
            "results": results,
        }],
    }
