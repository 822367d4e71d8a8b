"""Retry policy shared by every execution path that drives the pool.

One :class:`~repro.service.broker.Broker` executes both the service's
requests and the cells of :func:`~repro.experiments.parallel.
run_matrix_parallel`; :class:`RetryPolicy` is how hard it tries before
giving up on a cell:

* **bounded retries** with exponential backoff whose jitter is
  *deterministic* -- derived from the cell's content-address key and the
  attempt number, never from an RNG -- so reruns schedule identically;
* **per-attempt wall-clock timeouts**: an attempt that exceeds
  :attr:`RetryPolicy.timeout` is charged a failure and the pool (which
  cannot cancel a running task) is abandoned and respawned;
* after ``max_attempts`` worker attempts the cell gets one final
  in-process attempt (graceful degradation).

None of this touches *what* is computed -- recovery only ever re-runs
the same deterministic simulation -- so the repo's bit-identical
contract (serial == parallel == cached) holds on every path; the chaos
suite (``tests/test_chaos.py``) proves it under injected faults.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace

__all__ = [
    "CELL_TIMEOUT_ENV",
    "MAX_ATTEMPTS_ENV",
    "RetryPolicy",
]

MAX_ATTEMPTS_ENV = "REPRO_MAX_ATTEMPTS"
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before giving up on a cell.

    ``max_attempts`` bounds *worker* attempts; after exhausting them the
    cell gets one final in-process attempt (the serial fallback).
    ``timeout`` is wall-clock seconds per attempt (``None`` disables).
    Backoff before retry ``n`` is ``backoff_base * backoff_factor**(n-2)``
    capped at ``backoff_max``, spread by ``jitter`` (a +/-50%-of-jitter
    band) derived deterministically from the cell key and attempt number.
    """

    max_attempts: int = 3
    timeout: "float | None" = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Defaults, overridden by ``REPRO_MAX_ATTEMPTS`` /
        ``REPRO_CELL_TIMEOUT`` (seconds) when set and valid."""
        kwargs = {}
        raw = os.environ.get(MAX_ATTEMPTS_ENV, "").strip()
        if raw:
            try:
                value = int(raw)
            except ValueError:
                value = 0
            if value >= 1:
                kwargs["max_attempts"] = value
        raw = os.environ.get(CELL_TIMEOUT_ENV, "").strip()
        if raw:
            try:
                seconds = float(raw)
            except ValueError:
                seconds = 0.0
            if seconds > 0:
                kwargs["timeout"] = seconds
        return cls(**kwargs)

    def clamped(self, remaining: "float | None") -> "RetryPolicy":
        """This policy with its per-attempt timeout capped at *remaining*.

        Deadline propagation: a service request that must complete within
        *remaining* seconds cannot grant a single attempt more wall-clock
        than that, however generous the configured cell timeout is.
        ``None`` (no deadline) returns the policy unchanged; a
        non-positive *remaining* clamps to a minimal positive timeout so
        the attempt is charged a timeout instead of tripping the
        ``RetryPolicy`` validator.
        """
        if remaining is None:
            return self
        bound = max(remaining, 1e-3)
        if self.timeout is not None and self.timeout <= bound:
            return self
        return replace(self, timeout=bound)

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to back off before retry *attempt* (>= 2) of *key*.

        The jitter factor is hashed from (key, attempt): stable across
        processes and reruns, yet de-synchronized across cells so a
        respawned pool is not hit by every retry at once.
        """
        raw = self.backoff_base * self.backoff_factor ** max(0, attempt - 2)
        raw = min(raw, self.backoff_max)
        if not self.jitter:
            return raw
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0**64  # [0, 1)
        return raw * (1.0 + self.jitter * (unit - 0.5))
