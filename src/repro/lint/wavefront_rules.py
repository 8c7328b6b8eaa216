"""Wavefront-soundness rules: batched schedules must replay the serial plan.

:mod:`repro.core.wavefront` re-schedules a serial :class:`ExecutionPlan`
into breadth-wise batched steps; the executor's bit-exactness contract
("batched results are ``np.array_equal`` to serial DFS at every width")
rests entirely on the *schedule* being a pure regrouping of the serial
instruction stream.  P024 proves that property symbolically, with no
backend attached — the same static-proof idiom as the plan sanitizer
(P001-P012) applied to the :class:`WavefrontPlan`:

* every batch step groups only lanes whose *pending segment* is exactly
  the step's ``[start, end)`` window (mixed segments would advance some
  columns through the wrong gates);
* a symbolic replay of every lane's station cursor proves each lane
  visits its stations in order, exactly once, materializing from a row
  produced by a strictly earlier step (carry from itself, fork/steal
  from its parent) — so copy-on-diverge never reads a column that does
  not yet exist or was already retired;
* the replayed finish sequence, ordered by serial rank, equals the
  serial plan's ``Finish`` instruction stream — same trials, same order;
* operation counts are conserved: batched gate applications plus
  injections equal the serial plan's closed-form operation count.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from .diagnostics import Diagnostic, LintConfig, LintResult, Severity
from .registry import make_diagnostic, register

__all__ = ["lint_wavefront"]


register(
    "P024",
    "wavefront-soundness",
    Severity.ERROR,
    "plan",
    "Wavefront batch steps group mismatched segments or replay a "
    "different schedule than the serial plan.",
    explanation="Trial-batched execution is only a performance "
    "transformation if the wavefront schedule is a pure regrouping of "
    "the serial plan: every batched column must advance through exactly "
    "the gates its trial would see serially, in the same order, from a "
    "state that serial execution would also have reached.  P024 proves "
    "this symbolically — each batch step may group only lanes whose "
    "pending segment equals the step's [start, end) window and may not "
    "exceed the planned batch size; a replay of every lane's station "
    "cursor shows each lane visits its stations in order, exactly once, "
    "sourcing its column from a row a strictly earlier step produced "
    "(its own carry, or its parent at the recorded divergence point); "
    "the finish sequence ordered by serial rank must equal the serial "
    "plan's Finish instructions trial-for-trial; and summed batched "
    "gate work plus injections must equal the serial plan's operation "
    "count.  Any violation means the batched executor computes "
    "something other than the serial semantics and its bit-exactness "
    "guarantee is void.",
)


def _emit(
    diagnostics: List[Diagnostic],
    message: str,
    location: str,
    hint: str = "",
    config: Optional[LintConfig] = None,
) -> None:
    diagnostic = make_diagnostic(
        "P024", message, location=location, hint=hint or None, config=config
    )
    if diagnostic is not None:
        diagnostics.append(diagnostic)


def lint_wavefront(
    wavefront,
    plan,
    layered=None,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """``P024``: prove a :class:`WavefrontPlan` replays the serial plan.

    ``wavefront`` is the batched schedule, ``plan`` the serial
    :class:`~repro.core.schedule.ExecutionPlan` it was derived from.
    With ``layered`` the rule also proves operation-count conservation
    (batched gate work + injections == serial closed form).  Runs in
    O(steps + lanes) with no backend; ``run_wavefront(check=True)``
    calls it before touching a statevector.
    """
    from ..core.schedule import Finish, Inject, PlanWalk, Snapshot

    diagnostics: List[Diagnostic] = []
    lanes = wavefront.lanes
    num_lanes = len(lanes)

    # --- segment uniformity, width, and symbolic cursor replay --------
    cursor = [0] * num_lanes  # next station each lane must materialize
    produced: Set[Tuple[int, int]] = set()  # rows parked by earlier steps
    for index, step in enumerate(wavefront.steps):
        width = len(step.rows)
        where = f"step {index}"
        if width == 0:
            _emit(diagnostics, "empty batch step", where, config=config)
            continue
        if width > wavefront.batch_size:
            _emit(
                diagnostics,
                f"batch width {width} exceeds batch size "
                f"{wavefront.batch_size}",
                where,
                config=config,
            )
        seen_in_step: Set[int] = set()
        for col, row in enumerate(step.rows):
            spot = f"{where}[{col}]"
            if not 0 <= row.lane < num_lanes:
                _emit(
                    diagnostics,
                    f"row references unknown lane {row.lane}",
                    spot,
                    config=config,
                )
                continue
            lane = lanes[row.lane]
            if row.lane in seen_in_step:
                _emit(
                    diagnostics,
                    f"lane {row.lane} appears twice in one batch step",
                    spot,
                    hint="a lane is one trie trajectory — two columns of "
                    "the same lane in one step double-apply its gates",
                    config=config,
                )
            seen_in_step.add(row.lane)
            if row.station >= len(lane.stations):
                _emit(
                    diagnostics,
                    f"lane {row.lane} has no station {row.station}",
                    spot,
                    config=config,
                )
                continue
            segment = lane.stations[row.station]
            if segment != (step.start, step.end):
                _emit(
                    diagnostics,
                    f"lane {row.lane} station {row.station} pends segment "
                    f"[{segment[0]}, {segment[1]}) but was grouped into a "
                    f"[{step.start}, {step.end}) step",
                    spot,
                    hint="batches may only group identical pending "
                    "segments; mixed segments advance columns through "
                    "the wrong gates",
                    config=config,
                )
            if row.station != cursor[row.lane]:
                _emit(
                    diagnostics,
                    f"lane {row.lane} materializes station {row.station} "
                    f"but its replay cursor is at {cursor[row.lane]}",
                    spot,
                    hint="stations must be visited in order, exactly once",
                    config=config,
                )
            else:
                cursor[row.lane] += 1
            # Materialization source discipline.
            if row.kind == "root":
                if row.lane != 0 or row.station != 0 or row.src is not None:
                    _emit(
                        diagnostics,
                        f"invalid root row (lane {row.lane}, station "
                        f"{row.station}, src {row.src})",
                        spot,
                        config=config,
                    )
            elif row.kind == "carry":
                expected = (row.lane, row.station - 1)
                if row.src != expected:
                    _emit(
                        diagnostics,
                        f"carry row sources {row.src}, expected "
                        f"{expected}",
                        spot,
                        config=config,
                    )
            elif row.kind in ("fork", "steal"):
                if row.station != 0:
                    _emit(
                        diagnostics,
                        f"{row.kind} row at station {row.station} (births "
                        "happen at station 0)",
                        spot,
                        config=config,
                    )
                if row.src != lane.src:
                    _emit(
                        diagnostics,
                        f"{row.kind} row sources {row.src} but lane "
                        f"{row.lane} diverges from {lane.src}",
                        spot,
                        config=config,
                    )
                want_steal = not lane.snapshot
                if (row.kind == "steal") != want_steal:
                    _emit(
                        diagnostics,
                        f"lane {row.lane} snapshot={lane.snapshot} "
                        f"materialized as {row.kind!r}",
                        spot,
                        hint="snapshot forks copy the surviving parent "
                        "row; bare injects steal it",
                        config=config,
                    )
            else:
                _emit(
                    diagnostics,
                    f"unknown row kind {row.kind!r}",
                    spot,
                    config=config,
                )
            if row.src is not None and row.src not in produced:
                _emit(
                    diagnostics,
                    f"row sources {row.src} before any step produced it",
                    spot,
                    hint="copy-on-diverge may only read rows parked by a "
                    "strictly earlier step",
                    config=config,
                )
        # Arrivals park this step's rows for later consumers.
        for row in step.rows:
            produced.add((row.lane, row.station))

    # --- completeness: every lane visited every station ---------------
    for lane in lanes:
        if cursor[lane.lane_id] != len(lane.stations):
            _emit(
                diagnostics,
                f"lane {lane.lane_id} visited {cursor[lane.lane_id]} of "
                f"{len(lane.stations)} station(s)",
                f"lane {lane.lane_id}",
                hint="an unvisited station loses its trial(s); the "
                "schedule is incomplete",
                config=config,
            )

    # --- the serial side: one fold over the plan's walk ---------------
    serial_finishes: List[Tuple[int, ...]] = []
    serial_injects = 0
    serial_snapshots = 0
    for step in PlanWalk(plan.instructions, plan.num_layers):
        if isinstance(step.instr, Finish):
            serial_finishes.append(tuple(step.instr.trial_indices))
        elif isinstance(step.instr, Inject):
            serial_injects += 1
        elif isinstance(step.instr, Snapshot):
            serial_snapshots += 1

    # --- finish sequence: serial rank order == Finish instructions ----
    if len(wavefront.finishes) != len(serial_finishes):
        _emit(
            diagnostics,
            f"wavefront fires {len(wavefront.finishes)} finish(es) but "
            f"the serial plan has {len(serial_finishes)}",
            "finishes",
            config=config,
        )
    for position, (rank, lane_id, trials) in enumerate(wavefront.finishes):
        if rank != position:
            _emit(
                diagnostics,
                f"finish ranks are not a permutation of the serial order "
                f"(rank {rank} at position {position})",
                "finishes",
                config=config,
            )
            break
        if position < len(serial_finishes) and trials != serial_finishes[position]:
            _emit(
                diagnostics,
                f"finish {position} (lane {lane_id}) delivers trials "
                f"{trials} but the serial plan finishes "
                f"{serial_finishes[position]}",
                "finishes",
                hint="batched finishes are buffered and must drain in "
                "serial rank order, trial-for-trial",
                config=config,
            )
        lane = lanes[lane_id] if 0 <= lane_id < num_lanes else None
        if lane is not None and lane.finish != (rank, trials):
            _emit(
                diagnostics,
                f"finish table entry {position} disagrees with lane "
                f"{lane_id}'s recorded finish {lane.finish}",
                "finishes",
                config=config,
            )

    # --- structural counts vs the serial instruction stream -----------
    if wavefront.num_injects != serial_injects:
        _emit(
            diagnostics,
            f"wavefront injects {wavefront.num_injects} event(s) but the "
            f"serial plan injects {serial_injects}",
            "injects",
            config=config,
        )
    if wavefront.num_snapshots != serial_snapshots:
        _emit(
            diagnostics,
            f"wavefront marks {wavefront.num_snapshots} snapshot fork(s) "
            f"but the serial plan snapshots {serial_snapshots} time(s)",
            "snapshots",
            config=config,
        )

    # --- operation conservation (needs the layer axis for gate counts)
    batched_ops: Optional[int] = None
    serial_ops: Optional[int] = None
    if layered is not None:
        batched_ops = wavefront.num_injects
        for step in wavefront.steps:
            if step.end > step.start:
                batched_ops += layered.gates_between(step.start, step.end) * len(
                    step.rows
                )
        serial_ops = plan.planned_operations(layered)
        if batched_ops != serial_ops:
            _emit(
                diagnostics,
                f"batched schedule applies {batched_ops} operation(s) but "
                f"the serial plan applies {serial_ops}",
                "ops",
                hint="batching must be a pure regrouping — per-trial gate "
                "work is invariant",
                config=config,
            )

    info: Dict[str, Any] = {
        "num_lanes": num_lanes,
        "num_steps": len(wavefront.steps),
        "max_width": max(
            (len(step.rows) for step in wavefront.steps), default=0
        ),
        "finishes": len(wavefront.finishes),
        "batched_ops": batched_ops,
        "serial_ops": serial_ops,
    }
    return LintResult(diagnostics, info=info)
