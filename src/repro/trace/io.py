"""Trace serialization: save captured kernel traces to ``.npz``.

Capturing a trace from a renderer costs its forward passes (and a full
backward pass when gradient values are captured); saving lets a trace be
captured once and replayed across many simulator sessions (or shared as
a benchmark input, like real GPU traces are).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.trace.events import KernelTrace

__all__ = ["save_trace", "load_trace"]

_FORMAT_VERSION = 1


def save_trace(trace: KernelTrace, path: "str | Path") -> Path:
    """Write *trace* to a compressed ``.npz`` file; returns the path."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    payload = {
        "format_version": np.int64(_FORMAT_VERSION),
        "lane_slots": trace.lane_slots,
        "warp_id": trace.warp_id,
        "num_params": np.int64(trace.num_params),
        "n_slots": np.int64(trace.n_slots),
        "compute_cycles": np.asarray(trace.compute_cycles),
        "bfly_eligible": np.bool_(trace.bfly_eligible),
        "name": np.str_(trace.name),
    }
    if trace.values is not None:
        payload["values"] = trace.values
    np.savez_compressed(path, **payload)
    return path


def load_trace(path: "str | Path") -> KernelTrace:
    """Read a trace previously written by :func:`save_trace`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version} "
                f"(expected {_FORMAT_VERSION})"
            )
        compute = data["compute_cycles"]
        if compute.ndim == 0:
            compute = float(compute)
        return KernelTrace(
            lane_slots=data["lane_slots"],
            num_params=int(data["num_params"]),
            n_slots=int(data["n_slots"]),
            warp_id=data["warp_id"],
            compute_cycles=compute,
            values=data["values"] if "values" in data else None,
            bfly_eligible=bool(data["bfly_eligible"]),
            name=str(data["name"]),
        )
