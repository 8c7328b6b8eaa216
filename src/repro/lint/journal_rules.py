"""Journal lint: a run journal must be a consistent finish-order prefix.

Crash-safe resume (:func:`repro.core.resilience.run_journaled`) replays the
finish payloads recorded in a run journal instead of recomputing their
trials — so a corrupt or mismatched journal would silently poison the
resumed counts.  ``P019`` proves the journal's structural invariants before
any payload is trusted:

* **identity** — the journal's header (qubit count, trial count, trial-set
  fingerprint) matches the circuit and trial set being resumed;
* **exact cover prefix** — recorded finishes carry in-bounds,
  non-duplicated trial indices, and (with the circuit and trials at hand)
  form an *exact prefix* of the serial plan's finish stream: same index
  groups, same order.  Anything else means the journal came from a
  different run — or that resuming it would change the measurement RNG
  stream and thus the counts;
* **payload shape** — every recorded statevector has exactly ``2**n``
  amplitudes.

A torn tail (the run died mid-record) is *not* an error — the loader
already discarded it and the trials it covered are simply recomputed; the
lint reports it via ``result.info["truncated"]``.
"""

from __future__ import annotations

from typing import List, Optional

from .diagnostics import Diagnostic, LintConfig, LintResult, Severity
from .registry import make_diagnostic, register

__all__ = ["lint_journal"]


register(
    "P019",
    "journal-consistency",
    Severity.ERROR,
    "plan",
    "Run journal does not match the circuit/trial set or is not an exact "
    "prefix of the serial finish order.",
    explanation="Crash-safe resume replays journaled finish payloads "
    "instead of recomputing their trials, so a journal from a different "
    "circuit, trial set or finish order would silently poison the resumed "
    "counts.  P019 verifies the journal's identity fingerprint, payload "
    "shapes and exact-prefix property before any payload is trusted.",
)


def lint_journal(
    journal,
    layered=None,
    trials=None,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Audit a run journal before its payloads are trusted for resume.

    ``journal`` is a :class:`~repro.core.resilience.JournalReplay` or a
    path to a journal file (loaded via
    :func:`~repro.core.resilience.load_journal`).  With ``layered`` and
    ``trials`` supplied the audit also proves the fingerprint and the
    exact-prefix property against the serial plan; without them only the
    self-contained structural checks run.
    """
    from ..core.resilience import JournalReplay, journal_fingerprint, load_journal
    from ..core.schedule import Finish, PlanWalk, build_plan

    if not isinstance(journal, JournalReplay):
        journal = load_journal(journal)

    diagnostics: List[Diagnostic] = []

    def emit(message: str, location: str = "journal", hint: str = "") -> None:
        diagnostic = make_diagnostic(
            "P019", message, location=location, hint=hint or None, config=config
        )
        if diagnostic is not None:
            diagnostics.append(diagnostic)

    # -- self-contained structural checks ------------------------------------
    amplitudes = 1 << journal.num_qubits
    seen = {}
    for sequence, (vector, indices) in enumerate(journal.finishes):
        location = f"record[{sequence}]"
        if len(vector) != amplitudes:
            emit(
                f"payload has {len(vector)} amplitudes, expected "
                f"{amplitudes} for {journal.num_qubits} qubit(s)",
                location=location,
            )
        if not indices:
            emit("record finishes no trials", location=location)
        for index in indices:
            if not 0 <= index < journal.num_trials:
                emit(
                    f"trial index {index} outside the journal's "
                    f"{journal.num_trials} trial(s)",
                    location=location,
                )
            elif index in seen:
                emit(
                    f"trial {index} already finished by record "
                    f"{seen[index]}",
                    location=location,
                    hint="each trial finishes exactly once",
                )
            else:
                seen[index] = sequence

    # -- identity against the run being resumed ------------------------------
    if layered is not None:
        if journal.num_qubits != layered.num_qubits:
            emit(
                f"journal recorded {journal.num_qubits} qubit(s) but the "
                f"circuit has {layered.num_qubits}",
                hint="this journal belongs to a different circuit",
            )
    if trials is not None:
        if journal.num_trials != len(trials):
            emit(
                f"journal recorded {journal.num_trials} trial(s) but the "
                f"run has {len(trials)}",
                hint="this journal belongs to a different trial set",
            )
    if layered is not None and trials is not None:
        expected = journal_fingerprint(layered, trials)
        if journal.fingerprint != expected:
            emit(
                f"fingerprint {journal.fingerprint:#010x} does not match "
                f"the circuit/trial set ({expected:#010x})",
                hint="the journal was written for different inputs; "
                "resuming it would corrupt the counts",
            )
        elif journal.num_trials == len(trials):
            # -- exact-prefix property against the serial finish order -------
            plan = build_plan(layered, trials)
            serial = [
                step.instr.trial_indices
                for step in PlanWalk(plan.instructions, plan.num_layers)
                if isinstance(step.instr, Finish)
            ]
            recorded = [indices for _, indices in journal.finishes]
            if len(recorded) > len(serial):
                emit(
                    f"journal has {len(recorded)} finish record(s) but the "
                    f"plan only produces {len(serial)}"
                )
            else:
                for sequence, (got, want) in enumerate(zip(recorded, serial)):
                    if tuple(got) != tuple(want):
                        emit(
                            f"finish {sequence} covers trials {tuple(got)} "
                            f"but the serial plan finishes {tuple(want)} "
                            "there",
                            location=f"record[{sequence}]",
                            hint="the journal is not a prefix of the "
                            "serial finish order",
                        )
                        break

    info = {
        "records": len(journal.finishes),
        "completed_trials": len(journal.completed_trials),
        "truncated": journal.truncated,
    }
    return LintResult(diagnostics, info=info)
