"""Resumable run journals: an append-only record of completed cells.

An interrupted figure sweep used to restart from zero.  The journal
makes interruption cheap: as the :class:`~repro.service.broker.Broker`
completes each cell, it appends one JSONL record -- the cell's
content-address key (:func:`~repro.experiments.diskcache.result_key`)
plus its human-readable identity -- to the journal of its *session*.
:func:`~repro.experiments.parallel.run_matrix_parallel` names the
session after the *whole matrix* (:func:`run_key`, a hash of the
ordered cell-key list), so a rerun of the same matrix finds the
journal, loads each finished cell straight from the disk cache, and
dispatches only the remainder; a drained broker stop discards it.

Appends are atomic at the line level: each record is written with a
single ``os.write`` to an ``O_APPEND`` descriptor, so concurrent or
killed writers can at worst leave one torn *trailing* line, which
:meth:`RunManifest.load` skips (any malformed line is ignored rather
than poisoning the journal).  Resume correctness never depends on the
journal alone -- a listed cell is only skipped when the disk cache
still holds its content-addressed entry, so a cleared or corrupted
cache simply degrades to re-simulation.

Journals live under ``<cache root>/manifests/`` and exist only between
an interruption and the completing rerun.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

__all__ = ["RunManifest", "run_key"]

_FORMAT_VERSION = 1


def run_key(cell_keys: "list[str]") -> str:
    """Stable identity of one matrix invocation.

    Hashes the *ordered* cell-key list: the same workloads, strategies,
    GPUs, traces and engine produce the same run key (cell keys are
    content addresses), while any change to the matrix or its inputs
    starts a fresh journal instead of mis-resuming an unrelated one.
    """
    digest = hashlib.sha256()
    digest.update(b"run-manifest-v1\0")
    for key in cell_keys:
        digest.update(key.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


class RunManifest:
    """Append-only JSONL journal of one run's completed cells."""

    def __init__(self, path: "str | Path"):
        self.path = Path(path)

    @classmethod
    def for_session(cls, root: "str | Path",
                    session: str) -> "RunManifest":
        """Journal of one broker session under *root*.

        A matrix run names its session :func:`run_key` of its cell
        keys; a daemon names it by a caller-chosen id.
        """
        return cls(Path(root) / f"{session}.jsonl")

    def load(self) -> "dict[str, dict]":
        """Completed cell-key -> record; {} when absent.

        Malformed lines (a torn trailing append, editor damage) are
        skipped: losing a record merely re-simulates that cell.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return {}
        records: dict[str, dict] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if record.get("format") != _FORMAT_VERSION:
                    continue
                records[record["key"]] = record
            except (ValueError, KeyError, TypeError):
                continue
        return records

    def record(self, key: str, cell: dict) -> None:
        """Append one completed cell (best-effort, atomic line write)."""
        line = json.dumps(
            {"format": _FORMAT_VERSION, "key": key, "cell": cell},
            sort_keys=True, separators=(",", ":"),
        ) + "\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(fd, line.encode("utf-8"))
            finally:
                os.close(fd)
        except OSError:
            # An unwritable cache directory degrades to no resumability,
            # exactly like the disk cache it lives beside.
            return

    def discard(self) -> None:
        """Remove the journal (the run it tracked is complete)."""
        try:
            self.path.unlink()
        except OSError:
            pass
