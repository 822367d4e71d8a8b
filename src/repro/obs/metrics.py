"""Deterministic in-process metrics registry for the service stack.

Three instrument kinds -- :class:`Counter`, :class:`Gauge` and
fixed-bucket :class:`Histogram` -- collected in a
:class:`MetricsRegistry` that renders either a JSON-able
:meth:`~MetricsRegistry.snapshot` (for the daemon's ``metrics`` op) or
Prometheus text exposition format 0.0.4
(:meth:`~MetricsRegistry.render_prometheus`, served on
``repro serve --metrics-port``).

Design constraints, in order:

* **Non-blocking by construction.**  Instruments are plain dict/float
  updates -- no locks, no I/O, no syscalls -- so they are legal to call
  from coroutine context under arclint's ARC013 loop-blocking rule
  without any allowlisting.  (The asyncio event loop is single-threaded,
  so dict updates from broker coroutines need no lock; spawn workers
  have their *own* registry instance and report through the obslog
  stream instead.)
* **Deterministic exposition.**  Families render sorted by name, series
  sorted by label value tuple, floats via ``repr``-stable formatting --
  two identical runs produce byte-identical exposition, which is what
  lets tests pin it.
* **Fixed buckets.**  Histogram buckets are declared at registration
  (no dynamic rebucketing), so concurrent scrapes and snapshots always
  agree on the schema.

The registry deliberately does not know about wall-clock time: ``*_
seconds`` metrics are observed by callers who own the clock, keeping
this module import-safe everywhere (it imports nothing from ``repro``).
"""

from __future__ import annotations

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Upper bounds (seconds) shared by the request-latency style histograms.
#: Spans four orders of magnitude: sub-ms cache hits to multi-second
#: retry ladders.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_VALID_TYPES = ("counter", "gauge", "histogram")


def _format_value(value: float) -> str:
    """Prometheus sample value: integers bare, floats via repr."""
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _label_key(labels: dict) -> "tuple[tuple[str, str], ...]":
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: "tuple[tuple[str, str], ...]") -> str:
    if not key:
        return ""
    body = ",".join(
        '%s="%s"' % (name, value.replace("\\", "\\\\").replace('"', '\\"'))
        for name, value in key
    )
    return "{" + body + "}"


class _Instrument:
    """Shared shape: a named family of labeled series."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: "tuple[str, ...]" = ()):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._series: "dict[tuple[tuple[str, str], ...], float]" = {}

    def _key(self, labels: dict) -> "tuple[tuple[str, str], ...]":
        if not labels and not self.labelnames:
            return ()
        if set(labels) != set(self.labelnames):
            raise ValueError(
                "metric %r takes labels %r, got %r"
                % (self.name, self.labelnames, tuple(sorted(labels)))
            )
        return _label_key(labels)

    def series(self) -> "dict[tuple[tuple[str, str], ...], float]":
        return dict(self._series)


class Counter(_Instrument):
    """Monotonically increasing count (resets only with the process)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counter %r cannot decrease" % self.name)
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._series.get(self._key(labels), 0.0)

    def total(self) -> int:
        """The count summed over every labelled series."""
        return int(sum(self._series.values()))


class Gauge(_Instrument):
    """Point-in-time value that can move both ways."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._series[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        return self._series.get(self._key(labels), 0.0)


class Histogram(_Instrument):
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are inclusive upper bounds; a ``+Inf`` bucket is
    implicit.  Exposition emits cumulative ``_bucket`` counts plus
    ``_sum`` / ``_count`` series, exactly as Prometheus expects.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: "tuple[float, ...]" = DEFAULT_LATENCY_BUCKETS,
                 labelnames: "tuple[str, ...]" = ()):
        super().__init__(name, help_text, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram %r needs at least one bucket"
                             % name)
        self.buckets = bounds
        # series value: [per-bucket counts..., +Inf count, sum]
        self._hseries: "dict[tuple, list]" = {}

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        row = self._hseries.get(key)
        if row is None:
            row = [0] * (len(self.buckets) + 1) + [0.0]
            self._hseries[key] = row
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                row[i] += 1
        row[len(self.buckets)] += 1          # +Inf / _count
        row[-1] += float(value)              # _sum

    def counts(self, **labels) -> "tuple[list, float]":
        """(cumulative bucket counts incl. +Inf, sum) for one series."""
        row = self._hseries.get(self._key(labels))
        if row is None:
            return [0] * (len(self.buckets) + 1), 0.0
        return list(row[:-1]), row[-1]

    def series(self) -> dict:
        return {key: (list(row[:-1]), row[-1])
                for key, row in self._hseries.items()}


class MetricsRegistry:
    """A named set of instruments with get-or-create registration.

    Registration is idempotent by (name, kind): the broker, supervisor,
    cache and resilience layers can all ask for the same family without
    coordinating import order.  Asking for an existing name with a
    different kind or label schema is a programming error and raises.
    """

    def __init__(self):
        self._instruments: "dict[str, _Instrument]" = {}

    def _register(self, cls, name: str, help_text: str,
                  labelnames: "tuple[str, ...]", **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    "metric %r already registered as %s"
                    % (name, existing.kind)
                )
            if existing.labelnames != tuple(labelnames):
                raise ValueError(
                    "metric %r already registered with labels %r"
                    % (name, existing.labelnames)
                )
            return existing
        instrument = cls(name, help_text, labelnames=tuple(labelnames),
                         **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help_text: str = "",
                labelnames: "tuple[str, ...]" = ()) -> Counter:
        return self._register(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: "tuple[str, ...]" = ()) -> Gauge:
        return self._register(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  buckets: "tuple[float, ...]" = DEFAULT_LATENCY_BUCKETS,
                  labelnames: "tuple[str, ...]" = ()) -> Histogram:
        return self._register(Histogram, name, help_text, labelnames,
                              buckets=buckets)

    def get(self, name: str) -> "_Instrument | None":
        return self._instruments.get(name)

    def names(self) -> "list[str]":
        return sorted(self._instruments)

    def reset(self) -> None:
        """Drop every instrument (tests / daemon restarts)."""
        self._instruments.clear()

    # ----------------------------------------------------------------- #
    # Export
    # ----------------------------------------------------------------- #

    def snapshot(self) -> dict:
        """JSON-able dump: ``{name: {type, help, series: [...]}}``."""
        out: dict = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            entry: dict = {"type": inst.kind, "help": inst.help,
                           "series": []}
            if isinstance(inst, Histogram):
                entry["buckets"] = list(inst.buckets)
                for key in sorted(inst._hseries):
                    counts, total = inst.series()[key]
                    entry["series"].append({
                        "labels": dict(key),
                        "counts": counts,
                        "sum": total,
                        "count": counts[-1],
                    })
            else:
                for key in sorted(inst._series):
                    entry["series"].append({
                        "labels": dict(key),
                        "value": inst._series[key],
                    })
            out[name] = entry
        return out

    def render_prometheus(self) -> str:
        """Text exposition format 0.0.4, deterministically ordered."""
        lines: "list[str]" = []
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if inst.help:
                lines.append("# HELP %s %s"
                             % (name, inst.help.replace("\n", " ")))
            lines.append("# TYPE %s %s" % (name, inst.kind))
            if isinstance(inst, Histogram):
                for key in sorted(inst._hseries):
                    counts, total = inst.series()[key]
                    for bound, count in zip(inst.buckets, counts):
                        bucket_key = key + (("le", _format_value(
                            float(bound))),)
                        lines.append("%s_bucket%s %s" % (
                            name, _render_labels(bucket_key),
                            _format_value(float(count))))
                    inf_key = key + (("le", "+Inf"),)
                    lines.append("%s_bucket%s %s" % (
                        name, _render_labels(inf_key),
                        _format_value(float(counts[-1]))))
                    lines.append("%s_sum%s %s" % (
                        name, _render_labels(key), _format_value(total)))
                    lines.append("%s_count%s %s" % (
                        name, _render_labels(key),
                        _format_value(float(counts[-1]))))
            else:
                series = inst._series
                if not series and not inst.labelnames:
                    lines.append("%s 0" % name)
                for key in sorted(series):
                    lines.append("%s%s %s" % (
                        name, _render_labels(key),
                        _format_value(series[key])))
        return "\n".join(lines) + "\n"


#: Process-global default registry.  The daemon, broker, supervisor,
#: cache and resilience layers all report here unless handed an
#: explicit registry (tests inject fresh ones for isolation).
_DEFAULT = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _DEFAULT
