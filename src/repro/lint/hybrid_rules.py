"""Hybrid-soundness rule: the Clifford fast path must replay the serial plan.

:mod:`repro.core.hybrid` executes symbolic spans of a serial
:class:`~repro.core.schedule.ExecutionPlan` as Pauli-frame algebra over
shared dense anchors, materializing amplitudes only where a frame cannot
cross a segment.  The executor's bit-exactness contract rests on the
static :class:`~repro.core.hybrid.HybridSchedule` being a faithful
re-interpretation of the serial instruction stream.  P026 proves that
with an *independent* symbolic replay — same static-proof idiom as the
plan sanitizer (P001-P012):

* **action agreement** — an independent fold over the plan's walk
  (:class:`~repro.core.schedule.PlanWalk`), with its own frame
  interpreter, must reproduce the schedule's action tags
  instruction-for-instruction: symbolic exactly where the frame provably
  crosses the segment's compiled matrices, a materialization point
  exactly at the first failure, dense everywhere below it;
* **frame re-derivation** — the conjugated frame stored in every
  materialization/finish action payload must equal the
  independently re-derived frame (phase, X and Z bit masks);
* **event conservation** — the event history carried to each symbolic
  materialization point must equal the plan's injected events along that
  trie path, in order (the plan sanitizer separately proves those match
  each finished trial);
* **ops conservation** — the nominal operation count of the annotated
  walk (advance gates + injections, symbolic or not) must equal the
  serial plan's closed-form ``planned_operations``;
* **anchor-refcount soundness** — every anchor derivation must happen
  while its parent anchor is still referenced, and every path's static
  use count must equal the replayed number of uses, so the runtime's
  eager-release discipline can never free an anchor another consumer
  still needs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .diagnostics import Diagnostic, LintConfig, LintResult, Severity
from .registry import make_diagnostic, register

__all__ = ["lint_hybrid", "verify_schedule"]


register(
    "P026",
    "hybrid-soundness",
    Severity.ERROR,
    "plan",
    "Hybrid Clifford/Pauli-frame schedule disagrees with an independent "
    "symbolic replay of the serial plan.",
    explanation="The hybrid executor replaces dense suffix re-execution "
    "with Pauli-frame algebra over shared anchor states, and its "
    "bit-exactness guarantee (np.array_equal against the serial dense "
    "run) is only as good as the static schedule driving it.  P026 "
    "re-walks the serial instruction stream with an independent "
    "interpreter: it re-derives every Pauli frame by conjugating through "
    "the exact matrices the compiled kernels were built from, "
    "re-decides every symbolic/dense split (a span is symbolic only if "
    "the frame provably commutes through each matrix under exact "
    "arithmetic), and re-counts anchor uses.  The schedule must agree "
    "action-for-action: same materialization points, bitwise-equal frame "
    "payloads, the same injected-event history at every materialization, "
    "nominal operation counts equal to the serial plan's closed form, "
    "and anchor refcounts that never free a state a later consumer "
    "needs.  Any disagreement means the hybrid executor would compute "
    "something other than the serial semantics — wrong amplitudes, a "
    "skewed operation account, or a use-after-free of a shared anchor — "
    "so the run is rejected before a backend ever executes it.",
)


def _emit(
    diagnostics: List[Diagnostic],
    message: str,
    location: str,
    hint: str = "",
    config: Optional[LintConfig] = None,
) -> None:
    diagnostic = make_diagnostic(
        "P026", message, location=location, hint=hint or None, config=config
    )
    if diagnostic is not None:
        diagnostics.append(diagnostic)


def _frames_equal(a, b) -> bool:
    import numpy as np

    return (
        a.phase == b.phase
        and np.array_equal(a.x, b.x)
        and np.array_equal(a.z, b.z)
    )


class _Mismatch(Exception):
    """The first disagreement: ``(message, location, hint)``."""


def _replay(
    layered,
    instructions: Sequence[Any],
    schedule,
    problems: List[Tuple[str, str, str]],
) -> None:
    """Independent fold over the plan walk; appends ``(message, location,
    hint)``.  Re-derives every frame itself, through the ``matrices()``
    entries of its own :class:`~repro.sim.compiled.CompiledCircuit`; the walk
    supplies only slot pairing and the event history.  The first
    disagreeing action ends the replay (later actions are misaligned);
    the conservation checks run once every action agreed."""
    from ..core.hybrid import ROOT_PATH
    from ..core.schedule import (
        Advance,
        Finish,
        Inject,
        PlanWalk,
        Restore,
        Snapshot,
    )
    from ..sim.compiled import CompiledCircuit
    from ..sim.stabilizer import PauliFrame

    actions = schedule.actions
    if len(actions) != len(instructions):
        problems.append(
            (
                f"schedule has {len(actions)} actions for "
                f"{len(instructions)} instructions",
                "schedule",
                "",
            )
        )
        return

    compiled = CompiledCircuit(layered)
    DENSE = "dense"
    # Per-state fact: (anchor path, frame), or DENSE below a
    # materialization point; slots keyed as the walk reports them.
    working: Any = (ROOT_PATH, PauliFrame(layered.num_qubits))
    slots: Dict[int, Any] = {}
    seen_paths = {ROOT_PATH}
    replay_uses: Dict[Tuple[int, ...], int] = {ROOT_PATH: 0}
    nominal_ops = 0
    where = "schedule"

    def use(path):
        replay_uses[path] = replay_uses.get(path, 0) + 1

    def expect(ok: bool, message: str, hint: str = "") -> None:
        if not ok:
            raise _Mismatch(message, where, hint)

    def expect_kind(kind: str, wanted: str) -> None:
        expect(kind == wanted, f"expected {wanted}, schedule has {kind}")

    try:
        for step in PlanWalk(instructions, layered.num_layers):
            instr = step.instr
            action = actions[step.index]
            kind = action[0]
            where = f"instruction {step.index}"
            if isinstance(instr, Advance):
                nominal_ops += layered.gates_between(
                    instr.start_layer, instr.end_layer
                )
                if working is DENSE:
                    expect(
                        kind == "advance-dense",
                        f"dense working state but action is {kind}",
                        "everything below a materialization point must "
                        "stay dense until the enclosing Restore",
                    )
                    continue
                path, frame = working
                trial = frame.copy()
                crossed: Optional[PauliFrame] = trial
                if not frame.is_identity:
                    for matrix, qubits in compiled.matrices(
                        instr.start_layer, instr.end_layer
                    ):
                        if not trial.try_conjugate_matrix(matrix, qubits):
                            crossed = None
                            break
                segment = f"[{instr.start_layer},{instr.end_layer})"
                if crossed is None:
                    expect(
                        kind == "advance-mat",
                        f"frame cannot cross segment {segment} but action "
                        f"is {kind}",
                        "a frame that fails the exact commutation check "
                        "must force a materialization point",
                    )
                    _, mat_path, mat_frame, events = action
                    expect(
                        mat_path == path,
                        f"materialization anchored at {mat_path}, replay "
                        f"is at {path}",
                    )
                    expect(
                        _frames_equal(mat_frame, frame),
                        "materialization frame differs from the "
                        "re-derived frame",
                        "the payload frame decides the amplitudes — a "
                        "mismatch is a wrong result, not a style issue",
                    )
                    expect(
                        tuple(events) == step.history,
                        f"materialization event history {events} != "
                        f"replayed {step.history}",
                    )
                    use(path)
                    working = DENSE
                    continue
                expect(
                    kind == "advance-sym",
                    f"frame crosses segment {segment} but action is {kind}",
                    "a provably-crossable span must stay symbolic or the "
                    "schedule's cost claims are wrong",
                )
                _, parent, new_path, derive = action
                expected = path + (instr.end_layer,)
                expect(
                    parent == path and new_path == expected,
                    f"advance maps path {parent} -> {new_path}, replay "
                    f"expects {path} -> {expected}",
                )
                seen = new_path in seen_paths
                expect(
                    derive != seen,
                    f"derive flag {derive} but path {new_path} "
                    f"{'already' if seen else 'never'} seen",
                    "a wrong derive flag double-derives or skips an anchor",
                )
                if derive:
                    expect(
                        path in replay_uses,
                        f"deriving {new_path} from unknown parent {path}",
                    )
                    use(path)
                    seen_paths.add(new_path)
                    replay_uses.setdefault(new_path, 0)
                working = (new_path, crossed)
            elif isinstance(instr, Snapshot):
                expect_kind(
                    kind,
                    "snapshot-dense" if working is DENSE else "snapshot-sym",
                )
                slots[instr.slot] = working
            elif isinstance(instr, Inject):
                nominal_ops += 1
                if working is DENSE:
                    expect_kind(kind, "inject-dense")
                    continue
                expect_kind(kind, "inject-sym")
                path, frame = working
                frame = frame.copy()
                frame.inject(instr.event.pauli, instr.event.qubit)
                working = (path, frame)
            elif isinstance(instr, Restore):
                expect(not step.fault, f"restore of unknown slot {instr.slot}")
                working = slots.pop(instr.slot)
                expect_kind(
                    kind,
                    "restore-dense" if working is DENSE else "restore-sym",
                )
            elif isinstance(instr, Finish):
                if working is DENSE:
                    expect_kind(kind, "finish-dense")
                    continue
                expect_kind(kind, "finish-sym")
                _, payload_path, payload_frame = action
                path, frame = working
                expect(
                    payload_path == path,
                    f"finish anchored at {payload_path}, replay is at {path}",
                )
                expect(
                    _frames_equal(payload_frame, frame),
                    "finish frame differs from the re-derived frame",
                    "the payload frame decides the amplitudes",
                )
                use(path)
            else:
                expect(False, f"unknown instruction {instr!r}")
    except _Mismatch as mismatch:
        message, location, hint = mismatch.args
        problems.append((message, location, hint))
        return

    # ---- conservation checks over the whole stream ----------------------
    if nominal_ops != schedule.stats["planned_ops"]:
        problems.append(
            (
                f"schedule claims {schedule.stats['planned_ops']} planned "
                f"ops, serial closed form gives {nominal_ops}",
                "schedule",
                "nominal accounting must be invariant under the hybrid "
                "switch",
            )
        )
    for path, count in schedule.path_uses.items():
        replayed = replay_uses.get(path)
        if replayed is None:
            problems.append(
                (
                    f"schedule references anchor path {path} the replay "
                    "never visits",
                    "schedule",
                    "",
                )
            )
        elif replayed != count:
            problems.append(
                (
                    f"anchor {path} has static use count {count}, replay "
                    f"counts {replayed}",
                    "schedule",
                    "a high count strands memory; a low count frees an "
                    "anchor a later consumer still needs",
                )
            )


def verify_schedule(layered, instructions, schedule) -> List[str]:
    """Replay-check a hybrid schedule; returns problem strings (empty = ok).

    Convenience wrapper used by ``run_hybrid(check=True)`` — same proof
    as :func:`lint_hybrid` without diagnostic plumbing.
    """
    problems: List[Tuple[str, str, str]] = []
    _replay(layered, instructions, schedule, problems)
    return [f"P026 {where}: {message}" for message, where, _ in problems]


def lint_hybrid(
    layered,
    plan,
    schedule=None,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """``P026``: prove a hybrid schedule replays the serial plan.

    ``plan`` is the serial :class:`~repro.core.schedule.ExecutionPlan`;
    ``schedule`` the :class:`~repro.core.hybrid.HybridSchedule` derived
    from it (re-derived via ``classify_plan`` when omitted, in which case
    the rule certifies the classifier against itself plus all
    conservation invariants).  Runs statically — no backend, no
    amplitudes — by conjugating frames through the very entries the
    compiled kernels apply.
    """
    from ..core.hybrid import classify_plan

    if schedule is None:
        schedule = classify_plan(layered, plan)
    problems: List[Tuple[str, str, str]] = []
    _replay(layered, plan.instructions, schedule, problems)
    diagnostics: List[Diagnostic] = []
    for message, where, hint in problems:
        _emit(diagnostics, message, where, hint=hint, config=config)
    info = {
        "stats": dict(schedule.stats),
        "anchors": schedule.stats["anchors"],
        "materializations": schedule.stats["materializations"],
        "active": schedule.active,
    }
    return LintResult(diagnostics, info=info)
