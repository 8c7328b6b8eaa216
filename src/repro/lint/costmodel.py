"""Static cost & schedule analyzer: symbolic plan interpretation to a
machine-checkable **ResourceCertificate**.

The paper's redundancy elimination makes run cost a function of trie
*structure*: every ``Advance`` applies a statically known layer range,
every ``Inject`` one operator, every ``Snapshot``/``Restore`` moves one
statevector — so operations and the resident-memory timeline are both
decidable from the :class:`ExecutionPlan` alone, before a single
amplitude is touched.  Cost is counted as the paper counts it, in basic
operations: an ``Advance`` costs the gates of its range
(:meth:`~repro.circuits.layers.LayeredCircuit.gates_between`), an
``Inject`` one operation.  What one kernel costs in time is measured,
not modeled: :func:`repro.perf.kernel_microbench` reports it per class
and width.  This module computes:

:func:`analyze_plan`
    A fold over the symbolic plan walk
    (:class:`~repro.core.schedule.PlanWalk`, the walk
    :func:`repro.lint.plan_sanitizer.sanitize_plan` folds to prove
    *validity*; this fold computes *cost*) that compiles no kernel.
    The memory timeline mirrors :class:`~repro.core.cache.StateCache`
    accounting exactly, including predicted spill and spill-load events
    under any :class:`~repro.core.cache.CacheBudget` (the mirror replays
    the executor's make-room-before-copy / coldest-slot-first policy).

:func:`build_certificate`
    Bundles the plan analysis, the predicted spilling under a cache
    budget and the executor the default pick rule
    (:func:`repro.core.options.pick`) runs the trials on as ``advice`` —
    the JSON document behind ``repro run --auto`` and ``repro advise``,
    which adds the hybrid fast path's static shape
    (:func:`analyze_hybrid`) as its ``hybrid`` section.  Written
    atomically via :func:`repro.core.atomicio.atomic_write_json`.

The certificate is *checkable*: :func:`validate_certificate` checks its
schema, and rules P020, P021 and P023 (:mod:`repro.lint.schedule_rules`)
prove its numbers against real traces and runtime counters, the same
prove-it-then-run idiom as P013/P017.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..circuits.layers import LayeredCircuit
from ..core.cache import CacheBudget
from ..core.events import Trial
from ..core.schedule import (
    Advance,
    ExecutionPlan,
    Finish,
    Inject,
    PlanWalk,
    Restore,
    ScheduleError,
    Snapshot,
)

__all__ = [
    "CERT_SCHEMA",
    "PlanCostAnalysis",
    "analyze_hybrid",
    "analyze_plan",
    "budget_section",
    "frame_bytes",
    "build_certificate",
    "write_certificate",
    "validate_certificate",
]

#: Certificate document schema tag.
CERT_SCHEMA = "repro-cert/6"


def frame_bytes(num_qubits: int) -> int:
    """Resident bytes of one Pauli-frame delta (x/z rows plus phase)."""
    return 2 * num_qubits + 16


def _segment_name(start_layer: int, end_layer: int) -> str:
    """The span name the executor records for this Advance range."""
    return f"advance[{start_layer},{end_layer})"


class PlanCostAnalysis:
    """Everything statically decidable about one plan execution.

    Cost is counted in basic operations: ``ops`` is the plan's
    ``ops_applied``.  ``segments`` maps the executor's span name
    (``advance[s,e)``) to the per-range aggregate ``{count, gates, ops}``;
    ``timeline`` is the resident-memory change-point list
    ``[instruction_index, live, stored, resident]`` (index ``-1`` is the
    initial working state).  The nominal peaks mirror
    :func:`~repro.lint.plan_sanitizer.sanitize_plan` (and therefore the
    runtime ``CacheStats``); the ``predicted_*`` counters mirror the
    executor's budget spilling and are both zero without a budget.
    """

    def __init__(self) -> None:
        self.ops = 0
        self.num_instructions = 0
        self.segments: Dict[str, Dict[str, int]] = {}
        self.injects = 0
        self.finishes = 0
        self.finished_trials = 0
        self.snapshots_taken = 0
        self.peak_msv = 1
        self.peak_stored = 0
        self.peak_resident_msv = 1
        self.peak_resident_stored = 0
        self.timeline: List[Tuple[int, int, int, int]] = []
        self.predicted_spills = 0
        self.predicted_spill_loads = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ops": self.ops,
            "num_instructions": self.num_instructions,
            "segments": self.segments,
            "injects": {"count": self.injects},
            "finishes": self.finishes,
            "finished_trials": self.finished_trials,
            "snapshots_taken": self.snapshots_taken,
            "memory": {
                "peak_msv": self.peak_msv,
                "peak_stored": self.peak_stored,
                "peak_resident_msv": self.peak_resident_msv,
                "peak_resident_stored": self.peak_resident_stored,
                "timeline": [list(point) for point in self.timeline],
            },
            "predicted": {
                "spills": self.predicted_spills,
                "spill_loads": self.predicted_spill_loads,
            },
        }

    def __repr__(self) -> str:
        return f"PlanCostAnalysis(ops={self.ops}, peak_msv={self.peak_msv})"


def analyze_plan(
    plan: ExecutionPlan,
    layered: LayeredCircuit,
    budget: Optional[CacheBudget] = None,
) -> PlanCostAnalysis:
    """Fold over the symbolic walk of ``plan`` and compute its static costs.

    The plan must be structurally valid (run the sanitizer first;
    :func:`build_certificate` does).  Each ``Advance`` is charged
    ``layered.gates_between`` of its range and each ``Inject`` one
    operation, so the fold compiles no kernel.  ``budget`` predicts the
    executor's spilling under the same
    :class:`~repro.core.cache.CacheBudget`, mirroring its
    make-room-before-copy, coldest-slot-first policy (statevector states
    assumed: ``state_bytes = 16 * 2**n``).  The fold keeps only each
    stored snapshot's residency, keyed by the slot the walk reports.
    """
    analysis = PlanCostAnalysis()
    analysis.num_instructions = len(plan.instructions)
    state_bytes = 16 * (1 << layered.num_qubits)

    # slot -> whether the snapshot is resident (False once spilled)
    residency: Dict[int, bool] = {}
    resident_stored = 0  # unspilled snapshots only

    def resident_peaks() -> None:
        analysis.peak_resident_msv = max(
            analysis.peak_resident_msv, resident_stored + 1
        )
        analysis.peak_resident_stored = max(
            analysis.peak_resident_stored, resident_stored
        )

    def sample(index: int, live: int, stored: int) -> None:
        point = (index, live, stored, resident_stored + 1)
        if not analysis.timeline or analysis.timeline[-1][1:] != point[1:]:
            analysis.timeline.append(point)

    sample(-1, 1, 0)  # the initial working state

    walk = PlanWalk(plan.instructions, plan.num_layers)
    for step in walk:
        index, instr = step.index, step.instr
        if isinstance(instr, Advance):
            ops = layered.gates_between(instr.start_layer, instr.end_layer)
            analysis.ops += ops
            entry = analysis.segments.setdefault(
                _segment_name(instr.start_layer, instr.end_layer),
                {"count": 0, "gates": ops, "ops": 0},
            )
            entry["count"] += 1
            entry["ops"] += ops
        elif isinstance(instr, Snapshot):
            if step.fault:
                raise ScheduleError(
                    f"cost analysis of an invalid plan: slot {instr.slot} "
                    "snapshotted while occupied (run sanitize_plan first)"
                )
            # Mirror _DenseStates.snapshot: while one more state would not
            # fit beside the working state (+1), spill the coldest (lowest
            # id) resident snapshot; with none left, the new snapshot goes
            # straight to disk.
            direct = False
            if budget is not None:
                while (resident_stored + 2) * state_bytes > budget.max_bytes:
                    if not resident_stored:
                        direct = True
                        break
                    coldest = min(
                        slot for slot, resident in residency.items() if resident
                    )
                    residency[coldest] = False
                    analysis.predicted_spills += 1
                    resident_stored -= 1
                    sample(index, step.live - 1, step.stored - 1)
            residency[instr.slot] = not direct
            if direct:
                analysis.predicted_spills += 1
            else:
                resident_stored += 1
            analysis.snapshots_taken += 1
            resident_peaks()
            sample(index, step.live, step.stored)
        elif isinstance(instr, Inject):
            analysis.ops += 1
            analysis.injects += 1
        elif isinstance(instr, Restore):
            restored = step.entry
            if restored is None:
                raise ScheduleError(
                    f"cost analysis of an invalid plan: restore of empty "
                    f"slot {instr.slot} (run sanitize_plan first)"
                )
            if residency.pop(instr.slot):
                resident_stored -= 1
            else:
                analysis.predicted_spill_loads += 1
            resident_peaks()
            sample(index, step.live, step.stored)
        elif isinstance(instr, Finish):
            analysis.finishes += 1
            analysis.finished_trials += len(instr.trial_indices)
        else:
            raise ScheduleError(f"unknown plan instruction {instr!r}")

    analysis.peak_msv = walk.peak_live
    analysis.peak_stored = walk.peak_stored
    return analysis


def analyze_hybrid(
    layered: LayeredCircuit,
    plan: ExecutionPlan,
    compiled=None,
) -> Dict[str, Any]:
    """The Clifford/Pauli-frame fast path's static shape for ``plan``.

    Runs the hybrid classifier (:func:`repro.core.hybrid.classify_plan`,
    over the ``matrices()`` of ``compiled``, built here when omitted) and
    reports its gate-count ``stats`` — the symbolic/dense split of the
    plan's operations, anchors and materializations — and its memory.

    The memory section certifies two quantities with different roles:

    ``peak_full_states``
        Every co-resident full statevector — anchors, dense working
        states and the materialization transient.  This is the honest
        total-residency number; on shallow tries it can tie (or, on
        deep shared tries, beat) the dense plan's ``peak_msv``.

    ``cache_resident_bytes``
        The snapshot cache's resident bytes.  Symbolic snapshots are
        O(n) Pauli-frame deltas instead of full ``2**n`` states, so
        this shrinks *strictly* below the dense-only plan's
        ``peak_stored * state_bytes`` whenever any snapshot is
        symbolic — the static peak-MSV reduction the hybrid exists for.
    """
    from ..core.hybrid import classify_plan

    schedule = classify_plan(layered, plan, compiled)
    stats = dict(schedule.stats)
    num_qubits = layered.num_qubits
    state_bytes = 16 * (1 << num_qubits)

    walk = PlanWalk(plan.instructions, plan.num_layers)
    for _ in walk:  # the dense plan's peaks
        pass

    per_frame = frame_bytes(num_qubits)
    cache_bytes = (
        stats["peak_dense_stored"] * state_bytes
        + stats["peak_sym_stored"] * per_frame
    )
    dense_cache_bytes = walk.peak_stored * state_bytes
    return {
        "active": stats["savings"] > 0,
        "stats": stats,
        "memory": {
            "frame_bytes": per_frame,
            "peak_full_states": stats["peak_real_states"],
            "peak_full_bytes": stats["peak_real_states"] * state_bytes,
            "dense_peak_msv": walk.peak_live,
            "cache_dense_snapshots": stats["peak_dense_stored"],
            "cache_frame_snapshots": stats["peak_sym_stored"],
            "cache_resident_bytes": cache_bytes,
            "dense_cache_resident_bytes": dense_cache_bytes,
            "cache_shrink": bool(cache_bytes < dense_cache_bytes),
        },
    }


# ---------------------------------------------------------------------------
# ResourceCertificate
# ---------------------------------------------------------------------------


def budget_section(
    plan: ExecutionPlan,
    layered: LayeredCircuit,
    budget: CacheBudget,
) -> Dict[str, Any]:
    """A certificate's ``budget`` section: ``plan``'s predicted spilling
    and resident peaks under ``budget``, which P021 and P023 check."""
    degraded = analyze_plan(plan, layered, budget=budget)
    return {
        "max_bytes": budget.max_bytes,
        "predicted": degraded.to_dict()["predicted"],
        "peak_resident_msv": degraded.peak_resident_msv,
        "peak_resident_stored": degraded.peak_resident_stored,
        "timeline": [list(point) for point in degraded.timeline],
    }


def build_certificate(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    benchmark: Optional[str] = None,
    seed: Optional[int] = None,
    budget: Optional[CacheBudget] = None,
) -> Dict[str, Any]:
    """Build the ResourceCertificate for one circuit + trial set.

    The certificate carries (a) the serial plan's exact per-segment
    operation counts, in the paper's currency of basic operations (no
    flop or byte model: what a kernel costs in time is measured by
    :func:`repro.perf.kernel_microbench`), (b) the full resident-memory
    timeline with predicted spilling under ``budget``, and (c)
    ``advice``: the executor
    :func:`repro.core.options.pick` runs these trials on under
    ``budget`` (serial DFS whenever a budget is given), with that budget.
    The sections rank nothing: the reordering is exact on every
    executor, so choosing one is a cost decision, and the measured pick
    rule is the only one that makes it.  Budget spilling is certified
    for the serial schedule (P023 checks it against ``run_optimized``).
    The hybrid fast path's static shape (:func:`analyze_hybrid`) is not
    built here: ``repro advise``, its only reader, adds it.  Building a
    certificate compiles no kernel.
    """
    from ..core.options import pick
    from ..core.schedule import build_plan as _build_plan

    plan = _build_plan(layered, trials)
    audit = plan.audit(trials=trials, layered=layered)
    if not audit.ok:
        raise ScheduleError(
            "cannot certify an invalid plan: "
            + "; ".join(str(d) for d in audit.errors)
        )
    serial = analyze_plan(plan, layered)

    state_bytes = 16 * (1 << layered.num_qubits)

    max_cache_bytes = None if budget is None else budget.max_bytes
    advice = {
        "executor": pick(layered, trials, max_cache_bytes=max_cache_bytes).name,
        "max_cache_bytes": max_cache_bytes,
    }

    certificate: Dict[str, Any] = {
        "schema": CERT_SCHEMA,
        "benchmark": benchmark,
        "seed": seed,
        "num_trials": len(trials),
        "num_qubits": layered.num_qubits,
        "num_layers": layered.num_layers,
        "num_gates": layered.num_gates,
        "state_bytes": state_bytes,
        "plan": serial.to_dict(),
        "budget": (
            None if budget is None else budget_section(plan, layered, budget)
        ),
        "advice": advice,
    }
    return certificate


def write_certificate(path: str, certificate: Dict[str, Any]) -> None:
    """Atomically write a certificate document (via ``core.atomicio``)."""
    from ..core.atomicio import atomic_write_json

    atomic_write_json(path, certificate)


def validate_certificate(certificate: Dict[str, Any]) -> List[str]:
    """Structural validation of a certificate document.

    Returns a list of problems (empty = valid).  Checks the schema tag,
    required sections, the plan's op totals, an optional ``hybrid``
    section's internal sums and that ``advice`` names an executor and the
    certified budget — the cheap checks a CI step runs before trusting
    the numbers; the deep semantic proofs live in rules P020, P021 and
    P023.
    """
    problems: List[str] = []
    if not isinstance(certificate, dict):
        return ["certificate is not a JSON object"]
    if certificate.get("schema") != CERT_SCHEMA:
        problems.append(
            f"schema is {certificate.get('schema')!r}, expected "
            f"{CERT_SCHEMA!r}"
        )
    for key in (
        "num_trials",
        "num_qubits",
        "num_layers",
        "num_gates",
        "state_bytes",
        "plan",
        "advice",
    ):
        if key not in certificate:
            problems.append(f"missing key {key!r}")
    plan = certificate.get("plan")
    if isinstance(plan, dict):
        for key in ("ops", "segments", "injects", "memory"):
            if key not in plan:
                problems.append(f"plan missing key {key!r}")
        segments = plan.get("segments")
        if isinstance(segments, dict):
            total = sum(
                entry.get("ops", 0) for entry in segments.values()
            ) + plan.get("injects", {}).get("count", 0)
            if total != plan.get("ops"):
                problems.append(
                    f"segment ops + injects = {total} but plan.ops = "
                    f"{plan.get('ops')}"
                )
    hybrid = certificate.get("hybrid")
    if isinstance(hybrid, dict):
        stats = hybrid.get("stats", {})
        memory = hybrid.get("memory", {})
        plan_ops = plan.get("ops") if isinstance(plan, dict) else None
        if plan_ops is not None and stats.get("planned_ops") != plan_ops:
            problems.append(
                f"hybrid planned_ops {stats.get('planned_ops')} != "
                f"plan.ops {plan_ops} (hybrid must conserve operations)"
            )
        split = (
            stats.get("symbolic_gates", 0)
            + stats.get("dense_gates", 0)
            + stats.get("symbolic_injects", 0)
            + stats.get("dense_injects", 0)
        )
        if stats and split != stats.get("planned_ops"):
            problems.append(
                f"hybrid symbolic/dense split sums to {split}, not "
                f"planned_ops {stats.get('planned_ops')}"
            )
        state_bytes = certificate.get("state_bytes")
        if isinstance(state_bytes, int) and memory:
            expected_cache = memory.get(
                "cache_dense_snapshots", 0
            ) * state_bytes + memory.get(
                "cache_frame_snapshots", 0
            ) * memory.get("frame_bytes", 0)
            if expected_cache != memory.get("cache_resident_bytes"):
                problems.append(
                    "hybrid cache_resident_bytes inconsistent with its "
                    "snapshot composition"
                )
            shrink = memory.get("cache_resident_bytes", 0) < memory.get(
                "dense_cache_resident_bytes", 0
            )
            if bool(memory.get("cache_shrink")) != shrink:
                problems.append(
                    "hybrid cache_shrink flag contradicts the certified "
                    "cache byte counts"
                )
    advice = certificate.get("advice")
    if isinstance(advice, dict):
        from ..core.options import EXECUTORS

        if advice.get("executor") not in {e.name for e in EXECUTORS}:
            problems.append(
                f"advice.executor {advice.get('executor')!r} names no "
                "executor"
            )
        budget = certificate.get("budget")
        if isinstance(budget, dict) and advice.get(
            "max_cache_bytes"
        ) != budget.get("max_bytes"):
            problems.append(
                f"advice.max_cache_bytes {advice.get('max_cache_bytes')!r} "
                f"is not the certified budget {budget.get('max_bytes')!r}"
            )
    return problems
