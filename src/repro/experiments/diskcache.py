"""Persistent on-disk cache of simulation results.

The in-memory memoization in :mod:`repro.experiments.runner` dies with the
process, so every session re-simulates the full figure matrix from
scratch.  This module adds a durable layer below it: each simulated
(workload, GPU, strategy) cell is stored as one small JSON file keyed by a
*content hash* of everything that determines the simulation's outcome:

* every :class:`~repro.gpu.config.GPUConfig` field (cost and energy
  models included), via :meth:`GPUConfig.fingerprint`;
* the kernel trace's content, via :attr:`KernelTrace.fingerprint`;
* the strategy's class, report name and constructor parameters;
* the simulation engine's own source code, via
  :func:`engine_fingerprint` -- the inputs above say *what* is
  simulated, this says *by which* simulator.

Because the key is derived from content rather than names, a cached entry
can never be served for inputs it was not produced with -- editing a cost
model entry, re-capturing a trace differently, changing a balancing
threshold, or modifying the engine itself all change the key, so a warm
cache (a developer's ``~/.cache/repro-arc``, a restored CI snapshot)
degrades to misses rather than serving results an older engine computed.
Conversely the key is stable across processes, dict orderings and
sessions, which is what makes warm reruns skip
:func:`~repro.gpu.engine.simulate_kernel` entirely.

Layout: ``<root>/results/<first two hex chars>/<sha256>.json``.  Writes
are atomic (temp file + ``os.replace``) so concurrent worker processes
sharing one cache directory can only ever observe complete entries.
Corrupt or truncated entries are treated as misses and *quarantined*:
moved under ``<root>/quarantine/`` (never deleted, so a torn write or
bit-rot incident stays inspectable) and counted in
:attr:`CacheStats.quarantined`.  Writer temp files orphaned by a killed
process are swept on cache open once they are clearly abandoned
(older than one hour -- a live writer holds its temp file for
milliseconds).

Configuration:

* ``REPRO_CACHE_DIR`` -- cache directory (default
  ``$XDG_CACHE_HOME/repro-arc`` or ``~/.cache/repro-arc``);
* ``REPRO_NO_DISK_CACHE=1`` -- disable the disk layer entirely;
* ``REPRO_CACHE_SWEEP_AGE`` -- orphaned-temp-file sweep age gate in
  seconds (default 3600);
* :func:`configure` -- programmatic override of the first two.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro import obslog
from repro.core.base import AtomicStrategy
from repro.gpu.config import GPUConfig
from repro.gpu.stats import SimResult
from repro.obs import metrics as obsmetrics
from repro.trace.events import KernelTrace

__all__ = [
    "CACHE_DIR_ENV",
    "NO_CACHE_ENV",
    "SWEEP_AGE_ENV",
    "CacheStats",
    "DiskCache",
    "active_cache",
    "configure",
    "default_cache_dir",
    "engine_fingerprint",
    "isolated",
    "result_key",
    "strategy_fingerprint",
    "sweep_age_seconds",
]


def _metric(name: str, help_text: str) -> None:
    """Bump one counter in the process-global metrics registry.

    Pure in-memory (legal from any context); each process counts its
    own cache traffic, so the daemon's scrape reports the broker
    process while spawn workers keep their own tallies.
    """
    obsmetrics.registry().counter(name, help_text).inc()


CACHE_DIR_ENV = "REPRO_CACHE_DIR"
NO_CACHE_ENV = "REPRO_NO_DISK_CACHE"
SWEEP_AGE_ENV = "REPRO_CACHE_SWEEP_AGE"

#: Bump when the entry schema or keying scheme changes; old entries are
#: then treated as misses instead of deserializing wrongly.
_FORMAT_VERSION = 2

_SCALAR_TYPES = (bool, int, float, str, type(None))

#: Writer temp files older than this are orphans of a killed process (a
#: live writer holds its temp file only between ``mkstemp`` and
#: ``os.replace``); younger ones may belong to a concurrent worker and
#: are left alone.  ``REPRO_CACHE_SWEEP_AGE`` overrides (seconds).
_TEMP_ORPHAN_AGE_SECONDS = 3600.0


def sweep_age_seconds() -> float:
    """Age (seconds) past which a writer temp file counts as orphaned.

    ``REPRO_CACHE_SWEEP_AGE`` overrides the one-hour default; values
    that do not parse as a non-negative number are ignored rather than
    turning the sweep into a weapon against live writers.
    """
    raw = os.environ.get(SWEEP_AGE_ENV, "").strip()
    if raw:
        try:
            value = float(raw)
        except ValueError:
            value = -1.0
        if value >= 0:
            return value
    return _TEMP_ORPHAN_AGE_SECONDS


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro-arc`` (or the ``~/.cache`` fallback)."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-arc"


# --------------------------------------------------------------------- #
# Cache keys
# --------------------------------------------------------------------- #

#: Packages under ``src/repro`` whose source decides a simulation's
#: outcome for a given (config, trace, strategy): the timing engine, the
#: strategy implementations, and the trace analysis they consume.
#: Workloads and renderers are deliberately absent -- they only *produce*
#: traces, whose content is hashed separately.
_ENGINE_PACKAGES = ("core", "gpu", "trace")

_engine_fingerprint: "str | None" = None


def engine_fingerprint(root: "Path | None" = None) -> str:
    """Content hash of the simulation engine's own source code.

    Covers every ``.py`` file (path and bytes) of :data:`_ENGINE_PACKAGES`.
    The other key components identify *what* is simulated; this one
    identifies *which engine* simulated it, so editing ``simulate_kernel``
    or a strategy invalidates every previously cached result instead of
    letting a warm cache serve numbers the old engine computed.

    The process-wide value (``root=None``, hashing the installed
    ``repro`` package) is computed once and cached: source files do not
    change under a running process.  Tests pass an explicit *root* to
    fingerprint a synthetic tree.
    """
    global _engine_fingerprint
    if root is None and _engine_fingerprint is not None:
        return _engine_fingerprint
    base = Path(__file__).resolve().parents[1] if root is None else Path(root)
    digest = hashlib.sha256()
    digest.update(b"engine-src-v1\0")
    for package in _ENGINE_PACKAGES:
        for path in sorted((base / package).glob("*.py")):
            digest.update(f"{package}/{path.name}".encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    value = digest.hexdigest()
    if root is None:
        _engine_fingerprint = value
    return value


def strategy_fingerprint(strategy: AtomicStrategy) -> str:
    """Canonical identity of a freshly constructed strategy.

    Covers the class, the report name and every public attribute set by
    the constructor (balancing threshold, scheduler policy, buffer
    capacity fraction, ...).  Private per-launch state (underscored, set
    by ``begin_kernel``) is excluded: it does not exist at planning time
    and never affects which simulation the strategy performs.

    Only scalar parameters are supported; a strategy carrying a
    non-scalar public attribute raises :class:`TypeError` rather than
    being silently under-keyed, which would let two differently-behaving
    strategies collide on one cache entry.
    """
    params = {}
    for key, value in vars(strategy).items():
        if key.startswith("_") or key == "name":
            continue
        if not isinstance(value, _SCALAR_TYPES):
            raise TypeError(
                f"cannot fingerprint {type(strategy).__name__}.{key}: "
                f"{type(value).__name__} parameters are not supported by "
                "the cache key scheme (extend strategy_fingerprint with a "
                "canonical encoding before caching this strategy)"
            )
        params[key] = value
    return json.dumps(
        {
            "class": type(strategy).__name__,
            "name": strategy.name,
            "params": params,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def result_key(
    config: GPUConfig, trace: KernelTrace, strategy: AtomicStrategy
) -> str:
    """Content hash identifying one (GPU, trace, strategy) simulation."""
    payload = json.dumps({
        "format": _FORMAT_VERSION,
        "gpu": config.fingerprint(),
        "trace": trace.fingerprint,
        "strategy": strategy_fingerprint(strategy),
        "engine": engine_fingerprint(),
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# The cache proper
# --------------------------------------------------------------------- #


@dataclass
class CacheStats:
    """Session counters for one :class:`DiskCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0
    quarantined: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0 when never consulted)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "errors": self.errors,
            "quarantined": self.quarantined,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


class DiskCache:
    """Content-addressed store of :class:`SimResult` entries."""

    def __init__(self, root: "str | Path | None" = None):
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or default_cache_dir()
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.quarantine_dir = self.root / "quarantine"
        self.stats = CacheStats()
        self.swept_temp_files = self._sweep_orphan_temps()

    def entry_path(self, key: str) -> Path:
        """Where *key*'s committed entry lives (whether or not present)."""
        return self.results_dir / key[:2] / f"{key}.json"

    def _sweep_orphan_temps(self) -> int:
        """Remove writer temp files abandoned by killed processes.

        Only files older than :func:`sweep_age_seconds` go: a younger
        temp file may be a concurrent worker's in-flight write, and
        sweeping it would fail that writer's ``os.replace``.
        """
        if not self.results_dir.is_dir():
            return 0
        cutoff = time.time() - sweep_age_seconds()
        removed = 0
        for tmp in self.results_dir.glob("*/.*.tmp"):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue
        return removed

    def _quarantine(self, path: Path) -> "Path | None":
        """Move a corrupt entry aside instead of destroying evidence.

        The entry lands under ``quarantine/<shard>/`` with its name (a
        ``.N`` suffix de-duplicates repeat offenders).  Returns the new
        location, or ``None`` when the move failed and the entry was
        evicted instead -- a bad entry must never be served twice.
        """
        target_dir = self.quarantine_dir / path.parent.name
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            target = target_dir / path.name
            suffix = 0
            while target.exists():
                suffix += 1
                target = target_dir / f"{path.name}.{suffix}"
            os.replace(path, target)
            return target
        except OSError:
            path.unlink(missing_ok=True)
            return None

    def load(self, key: str) -> "SimResult | None":
        """Cached result for *key*, or ``None`` on miss/corruption.

        A malformed entry (truncated write, garbage bytes, foreign
        schema) is quarantined and counted as a miss: the caller falls
        back to re-simulating, never crashes, and the bad bytes stay
        available under ``quarantine/`` for diagnosis.
        """
        path = self.entry_path(key)
        try:
            text = path.read_text()
            payload = json.loads(text)
            if payload["format"] != _FORMAT_VERSION or payload["key"] != key:
                raise ValueError("stale or mismatched cache entry")
            result = SimResult.from_dict(payload["result"])
        except FileNotFoundError:
            self.stats.misses += 1
            _metric("repro_cache_misses_total", "Disk cache misses")
            obslog.emit("cache.miss", key=key)
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.errors += 1
            self.stats.misses += 1
            if path.exists():
                self._quarantine(path)
                self.stats.quarantined += 1
                _metric("repro_cache_quarantined_total",
                        "Corrupt entries quarantined")
                obslog.emit("cache.quarantine", key=key)
            _metric("repro_cache_misses_total", "Disk cache misses")
            obslog.emit("cache.miss", key=key, corrupt=True)
            return None
        self.stats.hits += 1
        self.stats.bytes_read += len(text)
        _metric("repro_cache_hits_total", "Disk cache hits")
        obslog.emit("cache.hit", key=key)
        return result

    def store(self, key: str, result: SimResult) -> None:
        """Atomically persist *result* under *key* (best-effort)."""
        path = self.entry_path(key)
        payload = json.dumps(
            {"format": _FORMAT_VERSION, "key": key,
             "result": result.to_dict()},
            sort_keys=True,
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            # A read-only or full cache directory degrades to no caching.
            self.stats.errors += 1
            return
        self.stats.writes += 1
        self.stats.bytes_written += len(payload)
        _metric("repro_cache_writes_total", "Disk cache entry writes")
        obslog.emit("cache.write", key=key)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def entries(self) -> list[Path]:
        """Every committed entry file currently on disk."""
        if not self.results_dir.is_dir():
            return []
        return sorted(self.results_dir.glob("*/*.json"))

    def quarantined_entries(self) -> list[Path]:
        """Every quarantined (corrupt, preserved) entry on disk."""
        if not self.quarantine_dir.is_dir():
            return []
        return sorted(
            path for path in self.quarantine_dir.glob("*/*")
            if path.is_file()
        )

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Quarantined files survive: they are preserved evidence of
        corruption, not cache state, and are only ever removed by hand.
        """
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed


# --------------------------------------------------------------------- #
# Process-wide active cache
# --------------------------------------------------------------------- #

_cache: "DiskCache | None" = None
_disabled_override: "bool | None" = None


def configure(
    root: "str | Path | None" = None, enabled: "bool | None" = None
) -> "DiskCache | None":
    """Reset the process-wide cache (overriding the environment).

    ``configure(root=...)`` points the cache somewhere else (tests use a
    temp dir); ``configure(enabled=False)`` turns the disk layer off and
    ``configure(enabled=True)`` forcibly re-enables it; ``configure()``
    returns to environment-driven defaults.  Returns the now-active
    cache, or ``None`` when disabled.
    """
    global _cache, _disabled_override
    _cache = DiskCache(root)
    _disabled_override = None if enabled is None else not enabled
    return active_cache()


def active_cache() -> "DiskCache | None":
    """The process-wide cache, or ``None`` when the disk layer is off."""
    global _cache
    if _disabled_override is not None:
        if _disabled_override:
            return None
    elif os.environ.get(NO_CACHE_ENV, "").strip() not in ("", "0"):
        return None
    if _cache is None:
        _cache = DiskCache()
    return _cache


@contextmanager
def isolated(root: "str | Path"):
    """Temporarily point the process-wide cache at a private *root*.

    Test fixtures use this to give one test throwaway disk-cache state:
    unlike clearing the active cache in place -- which would wipe a
    developer's real ``~/.cache/repro-arc`` -- the shared cache is left
    untouched and restored (object, session stats, enabled/disabled
    override) on exit.
    """
    global _cache, _disabled_override
    saved = (_cache, _disabled_override)
    _cache = DiskCache(root)
    try:
        yield _cache
    finally:
        _cache, _disabled_override = saved
