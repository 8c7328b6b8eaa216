"""Typed metric registry with atomic snapshots and an OpenMetrics exporter.

The trace layer (:mod:`repro.obs.recorder`) records *everything that
happened*; this module holds *current totals* — the shape a served or
long-running process exposes to a scraper.  Three instrument types, all
labeled:

:class:`Counter`
    Monotone total.  ``inc()`` only; decrementing raises.
:class:`Gauge`
    Settable level; also tracks its running ``peak``.
:class:`Histogram`
    Cumulative bucket counts plus ``sum``/``count`` (observation units
    are the caller's; the recorder bridge observes span seconds).

A :class:`MetricRegistry` owns the instruments.  All mutation and the
:meth:`~MetricRegistry.snapshot` read side share one lock, so a snapshot
is a *consistent cut*: no half-applied increment is ever visible, and the
returned structure is a deep copy the caller may mutate freely.

:func:`registry_from_recorder` is the bridge behind ``repro profile
--metrics`` and rule P025 (the daemon's ``/metrics`` is built by
:mod:`repro.serve.registry` instead): it folds an
:class:`~repro.obs.recorder.InMemoryRecorder` into three standard
families — ``repro_counter`` (label ``name``), ``repro_gauge`` (label
``name``; value = running peak) and ``repro_span_seconds`` (label
``span``; one histogram per span name) — plus
``repro_trace_events`` / ``repro_trace_dropped_events``.  Because the
recorder's aggregates stay exact under ring-buffer truncation, so do the
bridged counter and gauge families; only the span histograms describe
the retained event window.  Lint rule ``P025``
(:func:`repro.lint.lint_metrics_trace`) proves every bridged total equals
an independent replay of the trace.

:func:`render_openmetrics` emits the `OpenMetrics text format`_ (the
Prometheus exposition superset): ``# TYPE``/``# HELP`` headers, a
``_total`` suffix on counter samples, ``_bucket{le=...}``/``_sum``/
``_count`` for histograms, and the mandatory ``# EOF`` trailer.
:func:`validate_openmetrics` is the schema check used by tests and CI.

.. _OpenMetrics text format:
   https://prometheus.io/docs/specifications/om/open_metrics_spec/
"""

from __future__ import annotations

import math
import re
import threading
from typing import Dict, List, Mapping, Sequence, Tuple

from ..core.atomicio import atomic_write_text
from .recorder import InMemoryRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "registry_from_recorder",
    "render_openmetrics",
    "validate_openmetrics",
    "write_openmetrics",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets (seconds): spans range from microsecond
#: kernel programs to multi-second whole runs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

_LabelValues = Tuple[str, ...]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labels(label_names: Sequence[str]) -> Tuple[str, ...]:
    for label in label_names:
        if not _LABEL_RE.match(label):
            raise ValueError(f"invalid label name {label!r}")
    return tuple(label_names)


class _Instrument:
    """Base: one metric family; per-labelset children live in ``_series``."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        lock: threading.Lock,
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label_names = _check_labels(label_names)
        self._lock = lock
        self._series: Dict[_LabelValues, object] = {}

    def _key(self, labels: Mapping[str, str]) -> _LabelValues:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[label]) for label in self.label_names)


class Counter(_Instrument):
    """Monotone counter family."""

    kind = "counter"

    def inc(self, value: float = 1, **labels: str) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(self._series.get(key, 0.0)) + value

    def value(self, **labels: str) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))


class Gauge(_Instrument):
    """Settable level; remembers its running peak per labelset."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            _, peak = self._series.get(key, (0.0, None))
            if peak is None or value > peak:
                peak = float(value)
            self._series[key] = (float(value), peak)

    def value(self, **labels: str) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), (0.0, 0.0))[0])

    def peak(self, **labels: str) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), (0.0, 0.0))[1])


class Histogram(_Instrument):
    """Cumulative-bucket histogram family."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {"buckets": [0] * len(self.buckets),
                          "sum": 0.0, "count": 0}
                self._series[key] = series
            for position, bound in enumerate(self.buckets):
                if value <= bound:
                    series["buckets"][position] += 1
            series["sum"] += float(value)
            series["count"] += 1

    def count(self, **labels: str) -> int:
        with self._lock:
            series = self._series.get(self._key(labels))
            return int(series["count"]) if series else 0

    def sum(self, **labels: str) -> float:
        with self._lock:
            series = self._series.get(self._key(labels))
            return float(series["sum"]) if series else 0.0


class MetricRegistry:
    """A named family registry with one consistent-snapshot lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Instrument] = {}

    def _add(self, instrument: _Instrument) -> _Instrument:
        with self._lock:
            existing = self._families.get(instrument.name)
            if existing is not None:
                if type(existing) is not type(instrument) or (
                    existing.label_names != instrument.label_names
                ):
                    raise ValueError(
                        f"metric {instrument.name!r} already registered "
                        "with a different type or label set"
                    )
                return existing
            self._families[instrument.name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._add(Counter(name, help, labels, self._lock))  # type: ignore[return-value]

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        return self._add(Gauge(name, help, labels, self._lock))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._add(  # type: ignore[return-value]
            Histogram(name, help, labels, self._lock, buckets=buckets)
        )

    def families(self) -> List[str]:
        with self._lock:
            return sorted(self._families)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A consistent, deep-copied view of every family.

        Taken under the registry lock, so concurrent ``inc``/``set``/
        ``observe`` calls are either fully included or fully absent —
        never half-applied.  Shape per family::

            {"type", "help", "label_names", "series": [
                {"labels": {...}, "value": ...}                  # counter
                {"labels": {...}, "value": ..., "peak": ...}     # gauge
                {"labels": {...}, "buckets": {"0.001": n, ...},
                 "sum": ..., "count": ...}                       # histogram
            ]}
        """
        with self._lock:
            out: Dict[str, Dict[str, object]] = {}
            for name in sorted(self._families):
                family = self._families[name]
                series: List[Dict[str, object]] = []
                for key in sorted(family._series):
                    labels = dict(zip(family.label_names, key))
                    raw = family._series[key]
                    if family.kind == "counter":
                        series.append({"labels": labels, "value": raw})
                    elif family.kind == "gauge":
                        value, peak = raw  # type: ignore[misc]
                        series.append(
                            {"labels": labels, "value": value, "peak": peak}
                        )
                    else:
                        histogram: Histogram = family  # type: ignore[assignment]
                        series.append(
                            {
                                "labels": labels,
                                "buckets": {
                                    _format_value(bound): count
                                    for bound, count in zip(
                                        histogram.buckets,
                                        raw["buckets"],  # type: ignore[index]
                                    )
                                },
                                "sum": raw["sum"],  # type: ignore[index]
                                "count": raw["count"],  # type: ignore[index]
                            }
                        )
                entry: Dict[str, object] = {
                    "type": family.kind,
                    "help": family.help,
                    "label_names": list(family.label_names),
                    "series": series,
                }
                if family.kind == "histogram":
                    entry["bucket_bounds"] = [
                        _format_value(b)
                        for b in family.buckets  # type: ignore[attr-defined]
                    ]
                out[name] = entry
            return out


# ---------------------------------------------------------------------------
# Recorder bridge
# ---------------------------------------------------------------------------

#: Family names the recorder bridge emits; P025 keys off these.
COUNTER_FAMILY = "repro_counter"
GAUGE_FAMILY = "repro_gauge"
SPAN_FAMILY = "repro_span_seconds"
EVENTS_FAMILY = "repro_trace_events"
DROPPED_FAMILY = "repro_trace_dropped_events"


def registry_from_recorder(recorder: InMemoryRecorder) -> MetricRegistry:
    """Fold a recorded run into the standard metric families.

    Counter and gauge families come from the recorder's out-of-band
    aggregates, so they are exact even when the ring buffer truncated the
    event timeline; the span histograms replay matched ``B``/``E`` pairs
    and therefore describe the retained window only (``P025`` degrades
    to aggregate checks accordingly).
    """
    registry = MetricRegistry()
    counters = registry.counter(
        COUNTER_FAMILY, "Trace counter running totals.", labels=("name",)
    )
    for name in sorted(recorder.counters):
        counters.inc(recorder.counters[name], name=name)
    gauges = registry.gauge(
        GAUGE_FAMILY, "Trace gauge running peaks.", labels=("name",)
    )
    for name in sorted(recorder.gauge_peaks):
        gauges.set(recorder.gauge_peaks[name], name=name)
    spans = registry.histogram(
        SPAN_FAMILY,
        "Matched span durations from the retained event window.",
        labels=("span",),
    )
    durations = _span_duration_samples(recorder)
    for span in sorted(durations):
        for seconds in durations[span]:
            spans.observe(seconds, span=span)
    events = registry.counter(
        EVENTS_FAMILY, "Events retained in the recorder ring."
    )
    events.inc(len(recorder.events))
    dropped = registry.counter(
        DROPPED_FAMILY, "Events evicted by the recorder ring bound."
    )
    dropped.inc(getattr(recorder, "dropped_events", 0))
    return registry


def _span_duration_samples(
    recorder: InMemoryRecorder,
) -> Dict[str, List[float]]:
    """Per-span-name duration samples (LIFO pairing, unbalanced ignored).

    Same pairing rule as :meth:`InMemoryRecorder.span_durations`, but
    keeping individual samples so the histogram sees each observation.
    """
    stacks: Dict[str, List[float]] = {}
    samples: Dict[str, List[float]] = {}
    for event in recorder.events:
        if event.ph == "B":
            stacks.setdefault(event.name, []).append(event.ts)
        elif event.ph == "E":
            stack = stacks.get(event.name)
            if stack:
                started = stack.pop()
                samples.setdefault(event.name, []).append(event.ts - started)
    return samples


# ---------------------------------------------------------------------------
# OpenMetrics exposition
# ---------------------------------------------------------------------------


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(labels[key]))}"' for key in sorted(labels)
    )
    return "{" + inner + "}"


def render_openmetrics(snapshot: Mapping[str, Dict[str, object]]) -> str:
    """Render a :meth:`MetricRegistry.snapshot` as OpenMetrics text."""
    lines: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family["type"]
        lines.append(f"# TYPE {name} {kind}")
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        for series in family["series"]:  # type: ignore[union-attr]
            labels: Dict[str, str] = dict(series["labels"])  # type: ignore[index,arg-type]
            if kind == "counter":
                lines.append(
                    f"{name}_total{_labels_text(labels)} "
                    f"{_format_value(series['value'])}"  # type: ignore[index,arg-type]
                )
            elif kind == "gauge":
                lines.append(
                    f"{name}{_labels_text(labels)} "
                    f"{_format_value(series['value'])}"  # type: ignore[index,arg-type]
                )
            else:
                # ``observe`` increments every bucket whose bound covers
                # the value, so stored counts are already cumulative as
                # the exposition format requires.
                for bound, count in series["buckets"].items():  # type: ignore[index,union-attr]
                    bucket_labels = dict(labels, le=bound)
                    lines.append(
                        f"{name}_bucket{_labels_text(bucket_labels)} "
                        f"{_format_value(count)}"
                    )
                inf_labels = dict(labels, le="+Inf")
                lines.append(
                    f"{name}_bucket{_labels_text(inf_labels)} "
                    f"{_format_value(series['count'])}"  # type: ignore[index,arg-type]
                )
                lines.append(
                    f"{name}_sum{_labels_text(labels)} "
                    f"{_format_value(series['sum'])}"  # type: ignore[index,arg-type]
                )
                lines.append(
                    f"{name}_count{_labels_text(labels)} "
                    f"{_format_value(series['count'])}"  # type: ignore[index,arg-type]
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)\s*\Z"
)


def validate_openmetrics(text: str) -> List[str]:
    """Schema-check an OpenMetrics exposition; returns a problem list.

    Checks: every sample parses, every sample's family has a ``# TYPE``
    header, counter samples use the ``_total`` suffix, histogram
    ``_count`` equals the ``+Inf`` bucket, and the document ends with
    ``# EOF``.  An empty list means valid.
    """
    problems: List[str] = []
    lines = text.splitlines()
    if not lines or lines[-1].strip() != "# EOF":
        problems.append("document does not end with # EOF")
    types: Dict[str, str] = {}
    inf_buckets: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for position, line in enumerate(lines):
        if not line.strip() or line.strip() == "# EOF":
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                problems.append(f"line {position + 1}: malformed TYPE header")
                continue
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {position + 1}: unparseable sample {line!r}")
            continue
        sample = match.group("name")
        family = sample
        for suffix in ("_total", "_bucket", "_sum", "_count"):
            if sample.endswith(suffix) and sample[: -len(suffix)] in types:
                family = sample[: -len(suffix)]
                break
        kind = types.get(family)
        if kind is None:
            problems.append(
                f"line {position + 1}: sample {sample!r} has no TYPE header"
            )
            continue
        if kind == "counter" and not sample.endswith("_total"):
            problems.append(
                f"line {position + 1}: counter sample {sample!r} lacks the "
                "_total suffix"
            )
        try:
            value = float(match.group("value"))
        except ValueError:
            problems.append(
                f"line {position + 1}: non-numeric value "
                f"{match.group('value')!r}"
            )
            continue
        labels = match.group("labels") or ""
        series_key = family + "{" + ",".join(
            part for part in sorted(labels.split(","))
            if part and not part.startswith("le=")
        ) + "}"
        if kind == "histogram" and sample.endswith("_bucket"):
            if 'le="+Inf"' in labels:
                inf_buckets[series_key] = value
        elif kind == "histogram" and sample.endswith("_count"):
            counts[series_key] = value
    for series_key, count in counts.items():
        inf = inf_buckets.get(series_key)
        if inf is None:
            problems.append(f"histogram {series_key} has no +Inf bucket")
        elif inf != count:
            problems.append(
                f"histogram {series_key} +Inf bucket {inf} != count {count}"
            )
    return problems


def write_openmetrics(
    registry_or_snapshot, path: str
) -> str:
    """Render, validate and atomically write an OpenMetrics snapshot.

    Accepts a :class:`MetricRegistry` (snapshotted here) or an existing
    snapshot mapping; raises :class:`ValueError` if the rendered text
    fails :func:`validate_openmetrics` — a malformed exposition is an
    exporter bug and must not be shipped silently.
    """
    if isinstance(registry_or_snapshot, MetricRegistry):
        snapshot = registry_or_snapshot.snapshot()
    else:
        snapshot = registry_or_snapshot
    text = render_openmetrics(snapshot)
    problems = validate_openmetrics(text)
    if problems:
        raise ValueError(
            "refusing to write invalid OpenMetrics text: "
            + "; ".join(problems)
        )
    atomic_write_text(path, text)
    return text
