"""Wall-time attribution and roofline analysis over recorded traces.

The read side of the performance observatory: fold a recorder's span
stream into *exclusive* per-span wall time (hotspot table, collapsed
flamegraph stacks), then divide each ``advance[s,e)`` segment's measured
seconds into the flops and bytes the resource certificate certifies for
that exact segment.  Because the numerators come straight from the
certificate (the same numbers lint rule ``P020`` proves against the
trace), the achieved GFLOP/s and GB/s figures inherit the certificate's
exactness — only the denominator is a measurement.

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

Roofline methodology
--------------------
:func:`measure_peaks` calibrates the machine with three numpy
microbenchmarks: a complex matmul (peak GFLOP/s at the cost model's
8-flops-per-complex-MAC convention), a large out-of-cache copy (DRAM
GB/s) and a small cache-resident copy loop (cache GB/s).  Each
segment's arithmetic intensity (certified flops / certified bytes)
then classifies it as memory- or compute-bound, and the achieved
bandwidth band tests the paper's working-set hypothesis: a segment
streaming faster than DRAM allows must have been served from cache
(docs/architecture.md section 15).
"""

from __future__ import annotations

import re
import time
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
    "measure_peaks",
    "roofline_segments",
    "kernel_class_attribution",
    "build_profile_report",
    "format_profile_report",
]

PROFILE_SCHEMA = "repro-profile/1"

_SEGMENT_RE = re.compile(r"^advance\[(\d+),(\d+)\)$")

#: bytes of one complex128 amplitude (mirrors repro.sim.kernels)
_AMP_BYTES = 16


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


# -- machine calibration -----------------------------------------------------


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        run()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def measure_peaks(
    repeats: int = 3,
    matmul_n: int = 192,
    dram_mb: int = 64,
    cache_kb: int = 128,
) -> Dict[str, object]:
    """Calibrate peak GFLOP/s, DRAM GB/s and cache GB/s with numpy.

    * ``peak_gflops`` — best-of-``repeats`` complex128 matmul, priced at
      the cost model's convention of 8 real flops per complex
      multiply-add, so achieved/peak ratios compare like with like.
    * ``dram_gbps`` — copy between two buffers far larger than any
      cache (``dram_mb`` MB each); bytes counted once read + once
      written, matching :func:`~repro.sim.kernels.kernel_cost`.
    * ``cache_gbps`` — the same copy looped over ``cache_kb`` KB
      buffers small enough to stay L2-resident; the gap between the two
      bandwidths is the band the roofline verdicts interpolate.
    """
    import numpy as np

    rng = np.random.default_rng(7)

    n = int(matmul_n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a @ b  # warm the BLAS dispatch before timing
    matmul_s = _best_of(repeats, lambda: a @ b)
    matmul_flops = 8 * n**3

    dram_elems = max(1, (int(dram_mb) * 2**20) // _AMP_BYTES)
    src = np.zeros(dram_elems, dtype=np.complex128)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages before timing
    dram_s = _best_of(repeats, lambda: np.copyto(dst, src))
    dram_bytes = 2 * src.nbytes

    cache_elems = max(1, (int(cache_kb) * 2**10) // _AMP_BYTES)
    small_src = np.zeros(cache_elems, dtype=np.complex128)
    small_dst = np.empty_like(small_src)
    loops = max(1, dram_elems // cache_elems)

    def cache_copy() -> None:
        for _ in range(loops):
            np.copyto(small_dst, small_src)

    cache_copy()
    cache_s = _best_of(repeats, cache_copy)
    cache_bytes = 2 * small_src.nbytes * loops

    return {
        "peak_gflops": matmul_flops / matmul_s / 1e9,
        "dram_gbps": dram_bytes / dram_s / 1e9,
        "cache_gbps": cache_bytes / cache_s / 1e9,
        "matmul_n": n,
        "matmul_seconds": matmul_s,
        "dram_buffer_bytes": src.nbytes,
        "cache_buffer_bytes": small_src.nbytes,
        "repeats": int(repeats),
    }


# -- roofline attribution ----------------------------------------------------


def roofline_segments(
    plan_segments: Dict[str, Dict[str, int]],
    profile: SpanProfile,
    peaks: Dict[str, object],
    num_qubits: int,
) -> List[Dict[str, object]]:
    """Per-segment roofline verdicts from certified numerators.

    For each certificate segment present in the trace, divides the
    certified whole-run ``flops`` / ``bytes_moved`` (the *exact* P020
    numbers — no re-estimation happens here) by the segment span's
    measured inclusive seconds.  The verdict compares the segment's
    arithmetic intensity against the machine balance point; the
    ``band`` field tests the cache-residency hypothesis — achieved
    bandwidth above what DRAM sustains is only possible if the
    working state (``16 * 2**n`` bytes) stayed cache-resident.
    """
    peak_gflops = float(peaks["peak_gflops"])  # type: ignore[arg-type]
    dram_gbps = float(peaks["dram_gbps"])  # type: ignore[arg-type]
    state_bytes = _AMP_BYTES * 2**num_qubits
    rows: List[Dict[str, object]] = []
    for name in sorted(plan_segments, key=_segment_sort_key):
        certified = plan_segments[name]
        span = profile.spans.get(name)
        if span is None:
            continue
        seconds = float(span["total_s"])  # type: ignore[arg-type]
        flops = int(certified.get("flops", 0))
        bytes_moved = int(certified.get("bytes_moved", 0))
        achieved_gflops = flops / seconds / 1e9 if seconds > 0 else 0.0
        achieved_gbps = bytes_moved / seconds / 1e9 if seconds > 0 else 0.0
        intensity = flops / bytes_moved if bytes_moved else 0.0
        memory_roof = intensity * dram_gbps
        bound_gflops = min(peak_gflops, memory_roof) or peak_gflops
        verdict = "memory-bound" if memory_roof < peak_gflops else "compute-bound"
        rows.append(
            {
                "name": name,
                "count": int(certified.get("count", 0)),
                "gates": int(certified.get("gates", 0)),
                "flops": flops,
                "bytes_moved": bytes_moved,
                "seconds": seconds,
                "achieved_gflops": achieved_gflops,
                "achieved_gbps": achieved_gbps,
                "intensity_flops_per_byte": intensity,
                "bound_gflops": bound_gflops,
                "efficiency": (
                    achieved_gflops / bound_gflops if bound_gflops else 0.0
                ),
                "verdict": verdict,
                "band": "cache" if achieved_gbps > dram_gbps else "dram",
                "state_bytes": state_bytes,
            }
        )
    return rows


def _segment_sort_key(name: str) -> Tuple[int, int, str]:
    match = _SEGMENT_RE.match(name)
    if match:
        return (int(match.group(1)), int(match.group(2)), name)
    return (1 << 30, 1 << 30, name)


def kernel_class_attribution(
    plan_segments: Dict[str, Dict[str, int]],
    profile: SpanProfile,
    compiled,
) -> List[Dict[str, object]]:
    """Split measured segment time across kernel classes by flop share.

    The trace times whole ``advance[s,e)`` spans, not individual
    kernels; :meth:`CompiledCircuit.segment_kind_costs` prices each
    kernel kind's exact flop share of the segment, and that static
    share apportions the measured seconds.  Kinds whose flop count is
    zero (pure-copy permutations) share the remaining time by byte
    share instead, so free-flops kernels are not attributed zero wall
    time they demonstrably spent moving amplitudes.
    """
    classes: Dict[str, Dict[str, float]] = {}
    for name, certified in plan_segments.items():
        match = _SEGMENT_RE.match(name)
        span = profile.spans.get(name)
        if match is None or span is None:
            continue
        start, end = int(match.group(1)), int(match.group(2))
        split = compiled.segment_kind_costs(start, end)
        seconds = float(span["total_s"])  # type: ignore[arg-type]
        count = int(certified.get("count", 0))
        total_flops = sum(entry["flops"] for entry in split.values())
        total_bytes = sum(entry["bytes_moved"] for entry in split.values())
        for kind, entry in split.items():
            if total_flops > 0:
                share = entry["flops"] / total_flops
            elif total_bytes > 0:
                share = entry["bytes_moved"] / total_bytes
            else:
                share = 1.0 / len(split)
            bucket = classes.setdefault(
                kind,
                {"count": 0.0, "flops": 0.0, "bytes_moved": 0.0, "seconds": 0.0},
            )
            bucket["count"] += entry["count"] * count
            bucket["flops"] += entry["flops"] * count
            bucket["bytes_moved"] += entry["bytes_moved"] * count
            bucket["seconds"] += seconds * share
    rows = []
    for kind in sorted(classes, key=lambda k: -classes[k]["seconds"]):
        bucket = classes[kind]
        seconds = bucket["seconds"]
        rows.append(
            {
                "kind": kind,
                "count": int(bucket["count"]),
                "flops": int(bucket["flops"]),
                "bytes_moved": int(bucket["bytes_moved"]),
                "seconds": seconds,
                "achieved_gflops": (
                    bucket["flops"] / seconds / 1e9 if seconds > 0 else 0.0
                ),
            }
        )
    return rows


# -- report assembly ---------------------------------------------------------


def build_profile_report(
    recorder: InMemoryRecorder,
    plan_segments: Dict[str, Dict[str, int]],
    compiled,
    num_qubits: int,
    peaks: Optional[Dict[str, object]] = None,
    top: int = 12,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the full ``repro-profile/1`` document.

    ``plan_segments`` is the certificate's ``plan.segments`` mapping —
    the certified numerators.  ``peaks`` defaults to a fresh
    :func:`measure_peaks` calibration.  The caller (the ``repro
    profile`` CLI) attaches the P020 parity verdict and the metrics
    snapshot path afterwards.
    """
    if peaks is None:
        peaks = measure_peaks()
    profile = fold_spans(recorder)
    segments = roofline_segments(plan_segments, profile, peaks, num_qubits)
    classes = kernel_class_attribution(plan_segments, profile, compiled)
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
        "segments": segments,
        "kernel_classes": classes,
        "calibration": dict(peaks),
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
    segments = report.get("segments") or []
    if segments:
        calibration = report["calibration"]  # type: ignore[index]
        lines.append("")
        lines.append(
            "roofline (peak {peak:.1f} GFLOP/s, DRAM {dram:.1f} GB/s, "
            "cache {cache:.1f} GB/s):".format(
                peak=float(calibration["peak_gflops"]),  # type: ignore[index]
                dram=float(calibration["dram_gbps"]),  # type: ignore[index]
                cache=float(calibration["cache_gbps"]),  # type: ignore[index]
            )
        )
        rows = [
            {
                "segment": s["name"],
                "count": s["count"],
                "GFLOP/s": f"{float(s['achieved_gflops']):.2f}",
                "GB/s": f"{float(s['achieved_gbps']):.2f}",
                "flops/B": f"{float(s['intensity_flops_per_byte']):.2f}",
                "roof": f"{float(s['bound_gflops']):.1f}",
                "eff": f"{float(s['efficiency']):.1%}",
                "verdict": s["verdict"],
                "band": s["band"],
            }
            for s in segments
        ]
        lines.append(rows_to_table(rows))
    classes = report.get("kernel_classes") or []
    if classes:
        lines.append("")
        lines.append("kernel classes (flop-share attribution):")
        rows = [
            {
                "kind": c["kind"],
                "kernels": c["count"],
                "sec": f"{float(c['seconds']):.4f}",
                "GFLOP/s": f"{float(c['achieved_gflops']):.2f}",
            }
            for c in classes
        ]
        lines.append(rows_to_table(rows))
    return "\n".join(lines)
