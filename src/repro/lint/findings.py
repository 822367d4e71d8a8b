"""Findings: what a lint rule reports and how it is identified.

A :class:`Finding` pins one invariant violation to a source location.  Its
:attr:`~Finding.content_id` is *content-addressed*: it hashes the rule, the
file's path relative to the lint root, the stripped text of the offending
line and an occurrence counter -- never the line number.  SARIF reports
carry it as the finding's fingerprint, so inserting code above a finding
keeps its code-scanning alert identity, while editing the flagged line
itself (presumably to fix it) does not.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

__all__ = ["Severity", "Finding"]


class Severity(str, Enum):
    """How bad a finding is; only ``ERROR`` findings fail the build."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    message: str
    #: Stripped source text of the flagged line (what the id hashes).
    snippet: str = ""
    #: Disambiguates identical (rule, path, snippet, message) tuples --
    #: the same violation repeated on identical lines of one file.
    occurrence: int = 0
    content_id: str = field(init=False, default="")

    def __post_init__(self) -> None:
        payload = "\0".join(
            (self.rule, self.path, self.snippet, self.message,
             str(self.occurrence))
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
        object.__setattr__(self, "content_id", digest)

    def to_dict(self) -> dict:
        """JSON-compatible form (the ``--format json`` schema)."""
        return {
            "id": self.content_id,
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
            "occurrence": self.occurrence,
        }

    def render(self) -> str:
        """One-line human-readable form (``path:line: RULE message``)."""
        return (
            f"{self.path}:{self.line}: {self.rule} "
            f"{self.severity.value}: {self.message}"
        )
