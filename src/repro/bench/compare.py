"""Baseline comparison: diff a fresh BENCH document against a committed one.

Two metric classes, two policies (see :mod:`repro.bench.schema`):

* **deterministic** metrics (simulated cycles, op counts, fingerprints,
  result digests, per-phase simulated time, cache hit rates, on/off and
  serial/parallel bit-identity flags) are compared *exactly*.  Any
  difference is a ``mismatch`` -- the engine's behaviour changed, which
  fails the comparison until the baseline is deliberately re-recorded.
* **timing** metrics (per-cell wall-time medians, aggregate cells/sec,
  telemetry overhead, parallel speedup, peak RSS) are compared with a
  relative tolerance in the *regression* direction only: a run may be
  arbitrarily faster (reported as ``improved``), but slower beyond
  ``1 + tolerance`` is a ``regressed`` verdict.  CI passes generous
  tolerances because its machines differ from the one that recorded the
  baseline; the machine fingerprints of both documents are surfaced in
  the report so a human can judge borderline deltas.

An engine-fingerprint difference alone is *not* a failure -- it is the
expected state of every PR that touches the engine -- but it is called
out in the report, because it is the usual explanation for deterministic
mismatches (re-record the baseline to accept the new behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.schema import FORMAT_VERSION, validate_report

__all__ = [
    "CompareEntry",
    "Comparison",
    "Tolerances",
    "compare_reports",
]

#: Verdicts, from best to worst.
_VERDICT_ORDER = ("improved", "ok", "regressed", "mismatch")


@dataclass(frozen=True)
class Tolerances:
    """Per-class relative tolerances for timing comparisons.

    ``timing_frac=0.5`` means a cell may be up to 50% slower than the
    baseline before it counts as a regression; improvements beyond the
    same fraction are flagged ``improved``.  The default is sized for
    same-machine runs with few repeats (scheduler noise on a busy host
    easily reaches tens of percent); CI uses larger values still.  RSS
    gets its own knob: allocator and interpreter-version noise dwarfs
    genuine leaks at the scale these scenarios allocate.
    """

    timing_frac: float = 0.5
    rss_frac: float = 1.0


@dataclass(frozen=True)
class CompareEntry:
    """One compared metric."""

    metric: str
    kind: str  # "deterministic" | "timing" | "rss" | "structure"
    baseline: object
    fresh: object
    verdict: str  # "ok" | "improved" | "regressed" | "mismatch"

    @property
    def ratio(self) -> "float | None":
        """fresh / baseline for numeric pairs (None otherwise)."""
        if (isinstance(self.baseline, (int, float))
                and isinstance(self.fresh, (int, float))
                and not isinstance(self.baseline, bool)
                and self.baseline):
            return float(self.fresh) / float(self.baseline)
        return None


@dataclass
class Comparison:
    """Outcome of one baseline diff."""

    scenario: str
    entries: "list[CompareEntry]" = field(default_factory=list)
    notes: "list[str]" = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """Worst per-metric verdict, or ``ok`` for an empty comparison."""
        worst = "ok"
        for entry in self.entries:
            if (_VERDICT_ORDER.index(entry.verdict)
                    > _VERDICT_ORDER.index(worst)):
                worst = entry.verdict
        return worst

    @property
    def passed(self) -> bool:
        return self.verdict in ("ok", "improved")

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def counts(self) -> "dict[str, int]":
        counts = {verdict: 0 for verdict in _VERDICT_ORDER}
        for entry in self.entries:
            counts[entry.verdict] += 1
        return counts

    def failures(self) -> "list[CompareEntry]":
        return [entry for entry in self.entries
                if entry.verdict in ("regressed", "mismatch")]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "verdict": self.verdict,
            "passed": self.passed,
            "counts": self.counts(),
            "notes": list(self.notes),
            "entries": [
                {
                    "metric": entry.metric,
                    "kind": entry.kind,
                    "baseline": entry.baseline,
                    "fresh": entry.fresh,
                    "ratio": entry.ratio,
                    "verdict": entry.verdict,
                }
                for entry in self.entries
            ],
        }

    def render_text(self) -> str:
        """Human-readable report: notes, failures, then the verdict."""
        lines = [f"bench compare [{self.scenario}]"]
        lines.extend(f"  note: {note}" for note in self.notes)
        shown = self.failures() or [
            entry for entry in self.entries if entry.verdict == "improved"
        ]
        for entry in shown:
            ratio = entry.ratio
            ratio_text = f" ({ratio:.2f}x)" if ratio is not None else ""
            lines.append(
                f"  {entry.verdict:<9} {entry.metric}: "
                f"{entry.baseline!r} -> {entry.fresh!r}{ratio_text}"
            )
        counts = self.counts()
        lines.append(
            f"  {len(self.entries)} metrics compared: "
            + ", ".join(f"{counts[v]} {v}" for v in _VERDICT_ORDER)
        )
        lines.append(f"verdict: {'PASS' if self.passed else 'REGRESS'} "
                     f"({self.verdict})")
        return "\n".join(lines)


def _timing_verdict(baseline: float, fresh: float, frac: float) -> str:
    """Regression-direction tolerance band around the baseline."""
    if baseline <= 0:
        return "ok"
    ratio = fresh / baseline
    if ratio > 1.0 + frac:
        return "regressed"
    if ratio < 1.0 / (1.0 + frac):
        return "improved"
    return "ok"


def _exact(comparison: Comparison, metric: str, baseline, fresh) -> None:
    comparison.entries.append(CompareEntry(
        metric=metric, kind="deterministic", baseline=baseline, fresh=fresh,
        verdict="ok" if baseline == fresh else "mismatch",
    ))


def _timing(comparison: Comparison, metric: str, baseline, fresh,
            frac: float, higher_is_better: bool = False,
            kind: str = "timing") -> None:
    if baseline is None or fresh is None:
        comparison.entries.append(CompareEntry(
            metric=metric, kind=kind, baseline=baseline, fresh=fresh,
            verdict="ok" if baseline == fresh else "mismatch",
        ))
        return
    if higher_is_better:
        # Express "fresh got smaller" as a slowdown by inverting.
        verdict = _timing_verdict(fresh, baseline, frac)
    else:
        verdict = _timing_verdict(baseline, fresh, frac)
    comparison.entries.append(CompareEntry(
        metric=metric, kind=kind, baseline=baseline, fresh=fresh,
        verdict=verdict,
    ))


def compare_reports(baseline: dict, fresh: dict,
                    tolerances: "Tolerances | None" = None) -> Comparison:
    """Diff *fresh* against *baseline*; see the module policy.

    Both documents must be schema-valid, the same format version and the
    same scenario -- violations raise :class:`ValueError` (a usage error,
    distinct from a regression verdict).
    """
    tolerances = tolerances or Tolerances()
    for label, doc in (("baseline", baseline), ("fresh", fresh)):
        problems = validate_report(doc)
        if problems:
            raise ValueError(
                f"{label} document is not schema-valid "
                f"(format {FORMAT_VERSION}): " + "; ".join(problems[:5])
            )
    if baseline["scenario"] != fresh["scenario"]:
        raise ValueError(
            f"scenario mismatch: baseline {baseline['scenario']!r} "
            f"vs fresh {fresh['scenario']!r}"
        )

    comparison = Comparison(scenario=fresh["scenario"])
    if baseline["engine_fingerprint"] != fresh["engine_fingerprint"]:
        comparison.notes.append(
            "engine source changed since the baseline was recorded; "
            "deterministic mismatches below (if any) reflect new engine "
            "behaviour -- re-record the baseline to accept it"
        )
    if baseline["machine"] != fresh["machine"]:
        comparison.notes.append(
            f"different machines: baseline {baseline['machine']}, "
            f"fresh {fresh['machine']}; timing verdicts use tolerance "
            f"{tolerances.timing_frac:+.0%}"
        )

    base_cells = {cell["id"]: cell for cell in baseline["cells"]}
    fresh_cells = {cell["id"]: cell for cell in fresh["cells"]}
    for cell_id in sorted(set(base_cells) | set(fresh_cells)):
        if cell_id not in fresh_cells or cell_id not in base_cells:
            comparison.entries.append(CompareEntry(
                metric=f"cell[{cell_id}]", kind="structure",
                baseline=cell_id in base_cells,
                fresh=cell_id in fresh_cells, verdict="mismatch",
            ))
            continue
        base, new = base_cells[cell_id], fresh_cells[cell_id]
        for key, base_value in base["deterministic"].items():
            _exact(comparison, f"cell[{cell_id}].{key}",
                   base_value, new["deterministic"].get(key))
        _timing(comparison, f"cell[{cell_id}].wall_ms.median",
                base["wall_ms"]["median"], new["wall_ms"]["median"],
                tolerances.timing_frac)

    base_agg, fresh_agg = baseline["aggregate"], fresh["aggregate"]
    _timing(comparison, "aggregate.cells_per_sec",
            base_agg["cells_per_sec"], fresh_agg["cells_per_sec"],
            tolerances.timing_frac, higher_is_better=True)
    _timing(comparison, "aggregate.peak_rss_kb",
            base_agg["peak_rss_kb"], fresh_agg["peak_rss_kb"],
            tolerances.rss_frac, kind="rss")

    base_cache, fresh_cache = base_agg["cache"], fresh_agg["cache"]
    if base_cache is not None and fresh_cache is not None:
        for key in ("cold_hit_rate", "warm_hit_rate"):
            _exact(comparison, f"aggregate.cache.{key}",
                   base_cache[key], fresh_cache[key])
        _timing(comparison, "aggregate.cache.warm_speedup",
                base_cache["warm_speedup"], fresh_cache["warm_speedup"],
                tolerances.timing_frac, higher_is_better=True)
    elif base_cache is not None or fresh_cache is not None:
        _exact(comparison, "aggregate.cache", base_cache, fresh_cache)

    base_tel, fresh_tel = (base_agg["telemetry_overhead"],
                           fresh_agg["telemetry_overhead"])
    if base_tel is not None and fresh_tel is not None:
        _exact(comparison, "aggregate.telemetry_overhead.bit_identical",
               base_tel["bit_identical"], fresh_tel["bit_identical"])
        _timing(comparison, "aggregate.telemetry_overhead.overhead_ratio",
                base_tel["overhead_ratio"], fresh_tel["overhead_ratio"],
                tolerances.timing_frac)
    elif base_tel is not None or fresh_tel is not None:
        _exact(comparison, "aggregate.telemetry_overhead",
               base_tel, fresh_tel)

    base_par, fresh_par = base_agg["parallel"], fresh_agg["parallel"]
    if base_par is not None and fresh_par is not None:
        for key in ("jobs", "bit_identical"):
            _exact(comparison, f"aggregate.parallel.{key}",
                   base_par[key], fresh_par[key])
        _timing(comparison, "aggregate.parallel.speedup",
                base_par["speedup"], fresh_par["speedup"],
                tolerances.timing_frac, higher_is_better=True)
    elif base_par is not None or fresh_par is not None:
        _exact(comparison, "aggregate.parallel", base_par, fresh_par)

    return comparison
