"""Drive the seeded-mutant fixture corpus (:mod:`tests.lint_fixtures`).

Every positive fixture must produce findings for exactly its rule (a
cross-firing fixture is a bad fixture: it would mask regressions in the
rule it claims to cover); every negative must be completely clean.  The
meta-test at the bottom closes the loop: a rule registered without both
kinds of fixture fails the suite, so the corpus can never silently fall
behind the rule set.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import run_lint, rule_ids
from tests.lint_fixtures import CASES, FixtureCase


def _materialize(root: Path, case: FixtureCase) -> Path:
    for rel, source in case.files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.id)
def test_fixture(case: FixtureCase, tmp_path):
    report = run_lint([_materialize(tmp_path, case)])
    found = {finding.rule for finding in report.new}
    if case.kind == "positive":
        assert found == {case.rule}, (
            f"{case.id}: expected only {case.rule}, got {sorted(found)}: "
            + "; ".join(f"{f.rule} {f.path}:{f.line} {f.message}"
                        for f in report.new)
        )
        if case.expect is not None:
            assert any(case.expect in f.message for f in report.new), (
                f"{case.id}: no message contains {case.expect!r}"
            )
    else:
        assert report.new == [], (
            f"{case.id}: negative fixture must be clean, got: "
            + "; ".join(f"{f.rule} {f.path}:{f.line} {f.message}"
                        for f in report.new)
        )


def test_fixture_ids_are_unique():
    ids = [case.id for case in CASES]
    assert len(ids) == len(set(ids))


def test_every_rule_has_positive_and_negative_fixtures():
    for rule in rule_ids():
        kinds = {case.kind for case in CASES if case.rule == rule}
        assert kinds == {"positive", "negative"}, (
            f"{rule} is missing fixture kind(s): "
            f"{sorted({'positive', 'negative'} - kinds)}"
        )


def test_registry_is_contiguous_through_arc008():
    """The corpus meta-test is only as strong as the registry it walks:
    if a rule module silently stopped registering, the loop above would
    happily check fewer rules.  Pin the expected id range."""
    expected = {f"ARC{i:03d}" for i in range(1, 9)}
    assert set(rule_ids()) == expected


def test_fixtures_cover_no_unregistered_rules():
    registered = set(rule_ids())
    orphaned = {case.rule for case in CASES} - registered
    assert not orphaned, f"fixtures for unregistered rules: {orphaned}"
