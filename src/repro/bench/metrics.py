"""Content digest of one simulation result."""

from __future__ import annotations

import hashlib
import json

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.gpu.stats import SimResult

__all__ = ["sim_digest"]


def sim_digest(result: "SimResult") -> str:
    """Content hash of one cell's full simulation outcome.

    Round-trips through canonical JSON exactly like the engine-guard
    fixture, so "digest equal" means the committed-bytes notion of
    bit-identity, not approximate float comparison.  One short hash per
    cell catches any behaviour change anywhere in the result.
    """
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
