"""Wall-time attribution over recorded traces.

The read side of the performance observatory: fold a recorder's span
stream into *exclusive* per-span wall time (hotspot table, collapsed
flamegraph stacks).  Every number in the report is measured; nothing is
apportioned by a cost model.  Per-class kernel cost at each width is
what :func:`repro.perf.kernel_microbench` measures directly.

Attribution model
-----------------
Spans nest on one track.  Walking the ``B``/``E`` stream with a stack,
every interval between two
consecutive events belongs *exclusively* to the innermost open span, so

* the sum of exclusive times over a run's spans equals the run span's
  inclusive time by construction (coverage == 1.0 on a well-formed
  trace — the ``repro profile`` CLI fails if it drifts), and
* accumulating the same intervals per stack *path* yields collapsed
  flamegraph stacks (``run;advance[0,4);kernels[0,4) 1234``) for any
  `flamegraph.pl`-compatible renderer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.atomicio import atomic_write_text
from ..core.hostinfo import machine_info
from .recorder import InMemoryRecorder

__all__ = [
    "PROFILE_SCHEMA",
    "SpanProfile",
    "fold_spans",
    "flamegraph_lines",
    "write_flamegraph",
    "build_profile_report",
    "format_profile_report",
]

PROFILE_SCHEMA = "repro-profile/2"


class SpanProfile:
    """Folded span stream: per-name times, stack paths, coverage.

    ``spans`` maps span name to ``{"cat", "count", "total_s",
    "exclusive_s"}`` where ``total_s`` is inclusive (sum of matched
    B→E durations) and ``exclusive_s`` subtracts time spent in nested
    child spans.  ``stacks`` maps a ``;``-joined root-to-leaf path to
    the exclusive seconds spent with exactly that stack open — the
    collapsed flamegraph representation.  ``run_total_s`` is the
    inclusive time of ``cat == "run"`` spans; ``attributed_s`` the
    exclusive time accumulated while a run span was open, so
    ``coverage == attributed_s / run_total_s`` is 1.0 on a well-formed
    trace and sinks below it only when events went missing.
    """

    def __init__(self) -> None:
        self.spans: Dict[str, Dict[str, object]] = {}
        self.stacks: Dict[str, float] = {}
        self.run_total_s = 0.0
        self.attributed_s = 0.0
        self.orphan_ends = 0
        self.unclosed_spans = 0
        self.dropped_events = 0

    @property
    def coverage(self) -> float:
        if self.run_total_s <= 0.0:
            return 0.0
        return self.attributed_s / self.run_total_s

    def hotspots(self, top: Optional[int] = None) -> List[Dict[str, object]]:
        """Spans ranked by exclusive time, with share of attributed time."""
        ranked = sorted(
            self.spans.items(),
            key=lambda item: item[1]["exclusive_s"],  # type: ignore[index]
            reverse=True,
        )
        if top is not None:
            ranked = ranked[:top]
        denominator = self.attributed_s or 1.0
        return [
            {
                "name": name,
                "cat": entry["cat"],
                "count": entry["count"],
                "total_s": entry["total_s"],
                "exclusive_s": entry["exclusive_s"],
                "share": float(entry["exclusive_s"]) / denominator,  # type: ignore[arg-type]
            }
            for name, entry in ranked
        ]

    def as_dict(self) -> Dict[str, object]:
        return {
            "spans": {name: dict(entry) for name, entry in self.spans.items()},
            "run_total_s": self.run_total_s,
            "attributed_s": self.attributed_s,
            "coverage": self.coverage,
            "orphan_ends": self.orphan_ends,
            "unclosed_spans": self.unclosed_spans,
            "dropped_events": self.dropped_events,
        }


def fold_spans(recorder: InMemoryRecorder) -> SpanProfile:
    """Fold a recorder's B/E stream into a :class:`SpanProfile`.

    Events are walked on one stack, attributing each inter-event
    interval to the innermost open span and to its full stack path.
    Orphan end events (the ring buffer evicted their begin) are counted
    and skipped; spans left open at the end of the stream (mid-span
    truncation) are counted in ``unclosed_spans`` and contribute no
    inclusive time.
    """
    profile = SpanProfile()
    profile.dropped_events = int(getattr(recorder, "dropped_events", 0))
    stack: List[Tuple[str, str, float]] = []  # (name, cat, begin_ts)
    last_ts: Optional[float] = None

    def entry(name: str, cat: str) -> Dict[str, object]:
        found = profile.spans.get(name)
        if found is None:
            found = {"cat": cat, "count": 0, "total_s": 0.0, "exclusive_s": 0.0}
            profile.spans[name] = found
        return found

    def attribute(now: float) -> None:
        if not stack or last_ts is None:
            return
        delta = now - last_ts
        if delta <= 0.0:
            return
        name, cat, _ = stack[-1]
        record = entry(name, cat)
        record["exclusive_s"] = float(record["exclusive_s"]) + delta
        path = ";".join(frame[0] for frame in stack)
        profile.stacks[path] = profile.stacks.get(path, 0.0) + delta
        if stack[0][1] == "run":
            profile.attributed_s += delta

    for event in recorder.events:
        if event.ph not in ("B", "E"):
            continue
        attribute(event.ts)
        last_ts = event.ts
        if event.ph == "B":
            record = entry(event.name, event.cat)
            record["count"] = int(record["count"]) + 1
            stack.append((event.name, event.cat, event.ts))
        else:
            if stack and stack[-1][0] == event.name:
                name, cat, begin_ts = stack.pop()
                record = entry(name, cat)
                record["total_s"] = float(record["total_s"]) + (
                    event.ts - begin_ts
                )
                if cat == "run":
                    profile.run_total_s += event.ts - begin_ts
            else:
                profile.orphan_ends += 1
    profile.unclosed_spans = len(stack)
    return profile


def flamegraph_lines(profile: SpanProfile) -> List[str]:
    """Collapsed-stack lines (``path count``), counts in whole microseconds.

    The format `flamegraph.pl` and speedscope ingest directly: one line
    per distinct stack, the sample count being exclusive microseconds.
    Paths whose time rounds to zero microseconds are kept at weight 1 so
    no recorded stack silently vanishes from the rendering.
    """
    lines = []
    for path in sorted(profile.stacks):
        micros = int(round(profile.stacks[path] * 1e6))
        lines.append(f"{path} {max(micros, 1)}")
    return lines


def write_flamegraph(profile: SpanProfile, path: str) -> None:
    """Write the collapsed-stack file for ``flamegraph.pl``/speedscope."""
    atomic_write_text(path, "\n".join(flamegraph_lines(profile)) + "\n")


# -- report assembly ---------------------------------------------------------


def build_profile_report(
    profile: SpanProfile,
    top: int = 12,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the full ``repro-profile/2`` document from a folded trace.

    The caller (the ``repro profile`` CLI) attaches the P020 parity
    verdict and the metrics snapshot path afterwards.
    """
    report: Dict[str, object] = {
        "schema": PROFILE_SCHEMA,
        "machine": machine_info(),
        "run": {
            "total_s": profile.run_total_s,
            "attributed_s": profile.attributed_s,
            "coverage": profile.coverage,
            "orphan_ends": profile.orphan_ends,
            "unclosed_spans": profile.unclosed_spans,
            "dropped_events": profile.dropped_events,
        },
        "hotspots": profile.hotspots(top=top),
    }
    if meta:
        report.update(meta)
    return report


def format_profile_report(report: Dict[str, object], top: int = 12) -> str:
    """Human-readable rendering of a profile report (the CLI's stdout)."""
    from ..analysis.report import rows_to_table

    lines: List[str] = []
    run = report["run"]  # type: ignore[index]
    lines.append(
        "run total {total:.4f}s  attributed {attr:.4f}s  "
        "coverage {cov:.1%}".format(
            total=run["total_s"],  # type: ignore[index]
            attr=run["attributed_s"],  # type: ignore[index]
            cov=run["coverage"],  # type: ignore[index]
        )
    )
    hotspots = report.get("hotspots") or []
    if hotspots:
        lines.append("")
        lines.append("hotspots (exclusive wall time):")
        rows = [
            {
                "span": h["name"],
                "cat": h["cat"],
                "count": h["count"],
                "excl_ms": f"{float(h['exclusive_s']) * 1e3:.3f}",
                "incl_ms": f"{float(h['total_s']) * 1e3:.3f}",
                "share": f"{float(h['share']):.1%}",
            }
            for h in hotspots[:top]
        ]
        lines.append(rows_to_table(rows))
    return "\n".join(lines)
