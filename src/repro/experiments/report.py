"""Plain-text rendering of experiment tables.

The library has no plotting dependency; figures are reported as aligned
text tables (the benchmark harness also persists them as JSON).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.experiments.diskcache import CacheStats

__all__ = [
    "format_table",
    "format_speedup_matrix",
    "format_cache_stats",
]


def format_table(header: list[str], rows: list[list], title: str = "") -> str:
    """Align *rows* under *header*; floats are rendered with 2 decimals."""
    if any(len(row) != len(header) for row in rows):
        raise ValueError("every row must match the header width")
    formatted = [
        [f"{cell:.2f}" if isinstance(cell, float) else str(cell)
         for cell in row]
        for row in rows
    ]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in formatted))
        if formatted
        else len(header[i])
        for i in range(len(header))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_cache_stats(stats: "CacheStats", title: str = "") -> str:
    """Render one session's disk-cache counters (hits/misses/bytes).

    The benchmark harness prints this after a run so warm-start behaviour
    is visible: a fully warm session shows zero misses and zero writes.
    """
    rows = [
        ["hits", stats.hits],
        ["misses", stats.misses],
        ["hit rate", f"{stats.hit_rate:.1%}"],
        ["writes", stats.writes],
        ["corrupt/failed", stats.errors],
        ["quarantined", stats.quarantined],
        ["bytes read", f"{stats.bytes_read:,}"],
        ["bytes written", f"{stats.bytes_written:,}"],
    ]
    return format_table(
        ["counter", "value"], rows, title=title or "disk cache"
    )


def format_speedup_matrix(
    speedups: dict, title: str = ""
) -> str:
    """Render a ``{(workload, gpu, strategy): speedup}`` mapping.

    Rows are workloads, columns are (gpu, strategy) pairs in first-seen
    order -- the layout of the paper's grouped bar charts.
    """
    workloads: list[str] = []
    columns: list[tuple[str, str]] = []
    for workload, gpu, strategy in speedups:
        if workload not in workloads:
            workloads.append(workload)
        if (gpu, strategy) not in columns:
            columns.append((gpu, strategy))
    header = ["workload"] + [f"{strategy}@{gpu}" for gpu, strategy in columns]
    rows = []
    for workload in workloads:
        row: list = [workload]
        for gpu, strategy in columns:
            value = speedups.get((workload, gpu, strategy))
            row.append("-" if value is None else value)
        rows.append(row)
    return format_table(header, rows, title=title)
