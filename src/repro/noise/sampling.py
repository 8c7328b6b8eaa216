"""Static Monte-Carlo trial generation.

The paper's pipeline starts by generating *all* simulation trials without
running anything (Sec. I: "we first generate all the simulation trials
without actually running the simulation").  :func:`sample_trials` does this
for up to millions of trials efficiently: positions are grouped by channel,
the per-trial error count in each group is drawn from the exact binomial,
and only trials that actually contain errors pay any per-event Python cost.
Error-free trials cost no per-trial Python beyond their slot in the result:
they all share one ``Trial((), ())``.  Each channel's label CDF is built
once (see :class:`~repro.noise.channels.PauliChannel`).  At realistic error
rates the overwhelming majority of trials are error-free, so sampling 10^6
trials is cheap.  The order of the draws is pinned in
``docs/architecture.md`` §7.

:func:`enumerate_trials` is the exact counterpart for validation: it walks
every possible error pattern of a small circuit with its probability, which
lets tests compare the Monte-Carlo ensemble against the exact channel.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.layers import LayeredCircuit
from ..core.events import ErrorEvent, Trial, make_trial
from .channels import PauliChannel
from .model import ErrorPosition, NoiseModel

__all__ = [
    "sample_trials",
    "enumerate_trials",
    "expected_errors_per_trial",
    "TrialStatistics",
    "trial_statistics",
]


def _group_positions(
    positions: Sequence[ErrorPosition],
) -> Dict[PauliChannel, List[ErrorPosition]]:
    groups: Dict[PauliChannel, List[ErrorPosition]] = {}
    for position in positions:
        groups.setdefault(position.channel, []).append(position)
    return groups


def _label_events(
    position: ErrorPosition, label: str
) -> List[ErrorEvent]:
    """Expand a fired Pauli label into per-qubit error events."""
    return [
        ErrorEvent(position.layer, position.qubits[index], char)
        for index, char in enumerate(label)
        if char != "i"
    ]


def sample_trials(
    layered: LayeredCircuit,
    model: NoiseModel,
    num_trials: int,
    rng: np.random.Generator,
) -> List[Trial]:
    """Draw ``num_trials`` independent error-injection trials.

    Each error position fires independently with its channel's total
    probability; fired positions get an operator from the channel's
    conditional distribution.  Measurement flips are drawn per measurement
    with the model's readout probability.  The returned trials are in raw
    sampling order (the baseline order); reordering is a separate step.
    """
    if num_trials < 1:
        raise ValueError(f"need at least one trial, got {num_trials}")
    positions = model.error_positions(layered)
    events_per_trial: List[List[ErrorEvent]] = [[] for _ in range(num_trials)]

    for channel, group in _group_positions(positions).items():
        group_size = len(group)
        probability = channel.total_probability
        counts = rng.binomial(group_size, probability, size=num_trials)
        hot_trials = np.nonzero(counts)[0]
        for trial_index in hot_trials:
            fired = int(counts[trial_index])
            chosen = rng.choice(group_size, size=fired, replace=False)
            labels = channel.sample_labels(fired, rng)
            for position_index, label in zip(chosen, labels):
                position = group[int(position_index)]
                events_per_trial[trial_index].extend(
                    _label_events(position, str(label))
                )

    flips_per_trial: List[List[int]] = [[] for _ in range(num_trials)]
    meas_groups: Dict[float, List[int]] = {}
    for measurement, probability in model.measurement_positions(layered):
        if probability > 0.0:
            meas_groups.setdefault(probability, []).append(measurement.clbit)
    for probability, clbits in meas_groups.items():
        counts = rng.binomial(len(clbits), probability, size=num_trials)
        hot_trials = np.nonzero(counts)[0]
        for trial_index in hot_trials:
            fired = int(counts[trial_index])
            chosen = rng.choice(len(clbits), size=fired, replace=False)
            flips_per_trial[trial_index].extend(clbits[int(i)] for i in chosen)

    error_free = Trial((), ())
    return [
        make_trial(events, flips) if events or flips else error_free
        for events, flips in zip(events_per_trial, flips_per_trial)
    ]


def enumerate_trials(
    layered: LayeredCircuit,
    model: NoiseModel,
    max_positions: int = 12,
    include_measurement_flips: bool = False,
) -> List[Tuple[Trial, float]]:
    """Every possible trial of a small circuit, with its exact probability.

    The pattern space is ``(1 + |labels|) ** num_positions`` (times
    ``2 ** num_measurements`` when readout flips are included), so this is
    only for validation-sized circuits; ``max_positions`` guards against
    accidental blow-ups.
    """
    positions = model.error_positions(layered)
    if len(positions) > max_positions:
        raise ValueError(
            f"{len(positions)} error positions exceed max_positions="
            f"{max_positions}; enumeration would explode"
        )

    per_position_choices: List[List[Tuple[Tuple[ErrorEvent, ...], float]]] = []
    for position in positions:
        choices: List[Tuple[Tuple[ErrorEvent, ...], float]] = [
            ((), 1.0 - position.channel.total_probability)
        ]
        for label, probability in position.channel.probabilities.items():
            choices.append(
                (tuple(_label_events(position, label)), probability)
            )
        per_position_choices.append(choices)

    flip_choices: List[List[Tuple[Optional[int], float]]] = []
    if include_measurement_flips:
        for measurement, probability in model.measurement_positions(layered):
            if probability > 0.0:
                flip_choices.append(
                    [(None, 1.0 - probability), (measurement.clbit, probability)]
                )

    results: List[Tuple[Trial, float]] = []
    for pattern in itertools.product(*per_position_choices):
        events = [event for events_part, _ in pattern for event in events_part]
        event_probability = 1.0
        for _, probability in pattern:
            event_probability *= probability
        if not flip_choices:
            results.append((make_trial(events), event_probability))
            continue
        for flip_pattern in itertools.product(*flip_choices):
            flips = [clbit for clbit, _ in flip_pattern if clbit is not None]
            total = event_probability
            for _, probability in flip_pattern:
                total *= probability
            results.append((make_trial(events, flips), total))
    return results


def expected_errors_per_trial(layered: LayeredCircuit, model: NoiseModel) -> float:
    """The mean number of injected errors per trial (sum of position rates)."""
    return sum(
        position.channel.total_probability
        for position in model.error_positions(layered)
    )


class TrialStatistics:
    """Summary statistics of a sampled trial set."""

    def __init__(self, trials: Sequence[Trial]) -> None:
        error_counts = [trial.num_errors for trial in trials]
        self.num_trials = len(trials)
        self.num_error_free = sum(1 for c in error_counts if c == 0)
        self.mean_errors = float(np.mean(error_counts)) if trials else 0.0
        self.max_errors = max(error_counts) if trials else 0
        self.num_distinct = len({trial for trial in trials})

    @property
    def duplication_ratio(self) -> float:
        """Trials per distinct trial — the dedup headroom of the optimizer."""
        if self.num_distinct == 0:
            return 0.0
        return self.num_trials / self.num_distinct

    def __repr__(self) -> str:
        return (
            f"TrialStatistics(trials={self.num_trials}, "
            f"error_free={self.num_error_free}, "
            f"mean_errors={self.mean_errors:.3f}, "
            f"max_errors={self.max_errors}, distinct={self.num_distinct})"
        )


def trial_statistics(trials: Sequence[Trial]) -> TrialStatistics:
    """Compute :class:`TrialStatistics` for ``trials``."""
    return TrialStatistics(trials)
