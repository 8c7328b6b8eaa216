"""Trial-set and noise-model lint rules (``N0xx`` codes).

Trials are plain named tuples and noise models carry mutable calibration
maps, so invalid values can reach the scheduler through deserialized
payloads or post-construction mutation.  These rules re-verify the
properties the constructors enforce, plus circuit-relative bounds the
constructors cannot know.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..circuits.layers import LayeredCircuit
from ..core.events import PAULI_LABELS, Trial
from ..core.schedule import event_range_problems
from ..noise.model import NoiseModel
from .diagnostics import LintConfig, LintResult, Severity
from .registry import make_diagnostic, register

__all__ = ["lint_trials", "lint_noise_model"]

register(
    "N001",
    "event-layer-out-of-range",
    Severity.ERROR,
    "trials",
    "A trial event fires after a layer beyond the circuit depth.",
    explanation="Sampled error events are positioned after a circuit "
    "layer; an event past the circuit's depth can never be injected and "
    "signals a trial set sampled against a different (deeper) circuit or "
    "corrupted in transit.",
)
register(
    "N002",
    "event-qubit-out-of-range",
    Severity.ERROR,
    "trials",
    "A trial event targets a qubit outside the circuit.",
    explanation="An error operator on a qubit the circuit does not have "
    "cannot be applied to the statevector; the scheduler would crash when "
    "the plan injects it.  Checked here circuit-relative, which the Trial "
    "constructor alone cannot do.",
)
register(
    "N003",
    "duplicate-event-position",
    Severity.ERROR,
    "trials",
    "Two events of one trial collide on the same (layer, qubit) position.",
    explanation="The noise model samples at most one error operator per "
    "(layer, qubit) position per trial; two events colliding on a "
    "position means the trial was assembled by hand or merged "
    "incorrectly, and the trie's canonical ordering would be ambiguous.",
)
register(
    "N004",
    "unknown-pauli",
    Severity.ERROR,
    "trials",
    "A trial event carries an operator outside the {x, y, z} alphabet.",
    explanation="Injection resolves operators by Pauli label; anything "
    "outside the alphabet would raise mid-run.  Trials built through "
    "make_trial() are validated at construction — this rule catches "
    "deserialized or hand-built trials that bypassed it.",
)
register(
    "N005",
    "events-not-canonical",
    Severity.WARNING,
    "trials",
    "A trial's events are not in sorted (layer, qubit, pauli) order.",
    explanation="Reordering and deduplication key on the sorted event "
    "tuple; a non-canonical trial still executes correctly but defeats "
    "prefix sharing (identical trials stop deduplicating), silently "
    "costing the speedup the paper's trie exists to provide.",
)
register(
    "N006",
    "meas-flip-out-of-range",
    Severity.ERROR,
    "trials",
    "A readout flip targets a classical bit outside the register.",
    explanation="Readout errors flip classical bits after measurement; a "
    "flip on a bit outside the register would either crash bitstring "
    "assembly or silently do nothing, depending on the backend — both "
    "wrong, so it is rejected statically.",
)
register(
    "N007",
    "probability-out-of-range",
    Severity.ERROR,
    "noise",
    "An error or readout probability lies outside [0, 1].",
    explanation="Calibration maps are mutable and arrive from device "
    "payloads; a probability outside [0, 1] makes the sampler's "
    "Bernoulli draws meaningless (negative rates never fire, rates above "
    "one silently saturate).  Re-validated here because constructors "
    "cannot see post-construction mutation.",
)
register(
    "N008",
    "channel-not-normalized",
    Severity.ERROR,
    "noise",
    "A channel's error-label probabilities sum to more than 1.",
    explanation="Each error channel distributes its firing probability "
    "over Pauli labels; if the labels sum past 1 the 'no error' outcome "
    "has negative probability and sampled trial statistics are no longer "
    "a probability distribution.",
)

#: The rule of each bound :func:`event_range_problems` reports.
_RANGE_CODES = {"layer": "N001", "qubit": "N002"}


def lint_trials(
    trials: Sequence[Trial],
    layered: Optional[LayeredCircuit] = None,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Check every trial's events against the circuit's bounds and the
    canonical-ordering contract."""
    result = LintResult(info={"num_trials": len(trials)})

    def emit(code: str, message: str, index: int, hint: str = "") -> None:
        diagnostic = make_diagnostic(
            code,
            message,
            location=f"trial {index}",
            hint=hint or None,
            config=config,
        )
        if diagnostic is not None:
            result.add(diagnostic)

    num_layers = layered.num_layers if layered is not None else None
    num_qubits = layered.num_qubits if layered is not None else None

    for index, trial in enumerate(trials):
        positions = set()
        for event in trial.events:
            for bound, message in event_range_problems(
                event, num_layers, num_qubits
            ):
                emit(_RANGE_CODES[bound], message, index)
            if (event.layer, event.qubit) in positions:
                emit(
                    "N003",
                    f"two events at position (L{event.layer}, "
                    f"q{event.qubit})",
                    index,
                    hint="a position holds at most one error operator per "
                    "trial",
                )
            positions.add((event.layer, event.qubit))
            if event.pauli not in PAULI_LABELS:
                emit(
                    "N004",
                    f"event {event} has operator {event.pauli!r}; expected "
                    f"one of {PAULI_LABELS}",
                    index,
                    hint="build trials through make_trial() to validate "
                    "operators",
                )
        if tuple(sorted(trial.events)) != tuple(trial.events):
            emit(
                "N005",
                "events are not in canonical sorted order",
                index,
                hint="reordering and deduplication key on the sorted event "
                "tuple; use make_trial()",
            )
        if layered is not None:
            num_clbits = layered.circuit.num_clbits
            for clbit in trial.meas_flips:
                if not 0 <= clbit < num_clbits:
                    emit(
                        "N006",
                        f"readout flip of clbit {clbit}; the circuit has "
                        f"{num_clbits} classical bit(s)",
                        index,
                    )
    return result


def lint_noise_model(
    model: NoiseModel,
    layered: Optional[LayeredCircuit] = None,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Check a noise model's probabilities, optionally against a circuit.

    With ``layered`` provided, every error position the model enumerates
    for that circuit is checked (channel widths, normalization); without
    it, only the calibration maps are audited.
    """
    result = LintResult(info={"noise_model": model.name})

    def emit(code: str, message: str, location: str, hint: str = "") -> None:
        diagnostic = make_diagnostic(
            code, message, location=location, hint=hint or None, config=config
        )
        if diagnostic is not None:
            result.add(diagnostic)

    for label, probability in model._all_probabilities():
        if not 0.0 <= probability <= 1.0:
            emit(
                "N007",
                f"probability {probability} for {label} is outside [0, 1]",
                f"noise-model {model.name!r}",
                hint="calibration maps are mutable; re-validate after "
                "editing them",
            )

    if layered is not None:
        try:
            positions = model.error_positions(layered)
        except ValueError as exc:
            # Channel construction itself rejects the calibration values
            # (e.g. a mutated rate > 1): report instead of crashing.
            emit(
                "N008",
                f"cannot build error channels for {model.name!r}: {exc}",
                f"noise-model {model.name!r}",
            )
            positions = []
        for position in positions:
            channel = position.channel
            total = sum(channel.probabilities.values())
            location = (
                f"position (L{position.layer}, q{list(position.qubits)})"
            )
            if total > 1.0 + 1e-12:
                emit(
                    "N008",
                    f"channel error probabilities sum to {total:.6g} > 1",
                    location,
                )
            for label, probability in channel.probabilities.items():
                if probability < 0.0:
                    emit(
                        "N007",
                        f"negative probability {probability} for label "
                        f"{label!r}",
                        location,
                    )
        for measurement, probability in model.measurement_positions(layered):
            if not 0.0 <= probability <= 1.0:
                emit(
                    "N007",
                    f"readout flip probability {probability} for qubit "
                    f"{measurement.qubit} is outside [0, 1]",
                    f"measure q{measurement.qubit}",
                )
    return result
