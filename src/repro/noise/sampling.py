"""Static Monte-Carlo trial generation.

The paper's pipeline starts by generating *all* simulation trials without
running anything (Sec. I: "we first generate all the simulation trials
without actually running the simulation").  :func:`sample_trials` does this
for up to millions of trials in array calls: positions are grouped by
channel, the per-trial error count in each group is drawn from the exact
binomial, the fired positions of every hot trial by Floyd's algorithm run
over all of them at once, and all of a group's labels in one draw from the
channel's CDF.  The result is a set of event arrays (``_draw_events``) that
:func:`sample_trials` turns into ``Trial`` objects and
:func:`repro.core.packed.sample_packed_trials` into packed bytes.  Python
work per trial is only building the hot trials' objects; error-free trials
all share one ``Trial((), ())``.  The order of the draws is pinned in
``docs/architecture.md`` §7, pin 4.

:func:`enumerate_trials` is the exact counterpart for validation: it walks
every possible error pattern of a small circuit with its probability, which
lets tests compare the Monte-Carlo ensemble against the exact channel.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..circuits.layers import LayeredCircuit
from ..core.events import PAULI_LABELS, ErrorEvent, Trial, make_trial
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


def _draw_fires(
    group_size: int, probability: float, num_trials: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Which of a group's ``group_size`` positions fire, in which trials.

    Every position fires independently with ``probability``: one binomial
    per trial draws how many fire, and Floyd's algorithm, run over every
    hot trial at once, draws which, a uniform subset of that size.
    Iteration ``i`` draws an integer in ``[0, group_size - k + i]`` for
    each trial that fires ``k > i`` positions, in trial order; a draw its
    trial already holds becomes ``group_size - k + i``.  Returns
    ``(trial, position)`` arrays in trial order, within a trial in draw
    order.  Memory is proportional to the fires.  A group costs
    ``max(k)`` iterations and ``sum(k**2) / 2`` comparisons: nothing at the
    rates modelled here (a few dozen fires per trial at most), but a
    trial that fired thousands of one group's positions would be slow.
    """
    counts = rng.binomial(group_size, probability, size=num_trials)
    hot = np.flatnonzero(counts)
    fires = counts[hot]
    starts = np.cumsum(fires) - fires
    chosen = np.empty(int(fires.sum()), dtype=np.int64)
    rows = np.arange(hot.size)
    for i in range(int(fires.max()) if hot.size else 0):
        if i:
            rows = rows[fires[rows] > i]
        fallback = group_size - fires[rows] + i
        draw = rng.integers(0, fallback + 1)
        if i:
            held = chosen[starts[rows, None] + np.arange(i)]
            taken = (held == draw[:, None]).any(axis=1)
            draw[taken] = fallback[taken]
        chosen[starts[rows] + i] = draw
    return np.repeat(hot, fires), chosen


def _label_table(channel: PauliChannel) -> np.ndarray:
    """``[label, component]`` -> index into ``PAULI_LABELS``, -1 for ``i``."""
    return np.array(
        [
            [-1 if char == "i" else PAULI_LABELS.index(char) for char in label]
            for label in channel.labels()
        ],
        dtype=np.int8,
    ).reshape(len(channel.labels()), channel.width)


def _concatenate(parts: List[np.ndarray], dtype: type) -> np.ndarray:
    """Concatenate ``parts``, emptying the list so its arrays can go."""
    joined = np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
    parts.clear()
    return joined


def _draw_group(
    channel: PauliChannel,
    group: Sequence[ErrorPosition],
    num_trials: int,
    rng: np.random.Generator,
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """One channel group's events: :func:`_draw_fires`, then one
    ``sample_labels`` call for all of its fires, given to them in the order
    ``_draw_fires`` returns them.  Returns ``(trial, layer, qubit, pauli)``
    arrays, one set per label component."""
    trial, position = _draw_fires(len(group), channel.total_probability, num_trials, rng)
    if not trial.size:
        return []
    layers = np.array([p.layer for p in group], dtype=np.int32)
    qubits = np.array([p.qubits for p in group], dtype=np.int32)
    if layers.min() < 0 or qubits.min() < 0:
        raise ValueError(f"negative layer/qubit among positions {group}")
    labels = channel.sample_labels(trial.size, rng)
    components = _label_table(channel)[
        np.searchsorted(np.array(channel.labels()), labels)
    ]
    events = []
    for index in range(channel.width):
        pauli = components[:, index]
        keep = pauli >= 0
        if keep.all():
            fired_trial, fired = trial, position
        else:
            fired_trial, fired, pauli = trial[keep], position[keep], pauli[keep]
        events.append((fired_trial, layers[fired], qubits[fired, index], pauli))
    return events


class _Draw(NamedTuple):
    """Every draw of one request as arrays.

    Events are sorted by trial and then by ``(layer, qubit)``, with
    ``pauli`` an index into ``PAULI_LABELS``; flips are sorted by trial
    and then by clbit, without repeats.
    """

    trial: np.ndarray
    layer: np.ndarray
    qubit: np.ndarray
    pauli: np.ndarray
    flip_trial: np.ndarray
    flip_clbit: np.ndarray


def _draw_events(
    layered: LayeredCircuit,
    model: NoiseModel,
    num_trials: int,
    rng: np.random.Generator,
    flips: bool,
) -> _Draw:
    """The one draw behind both samplers (docs/architecture.md §7, pin 4).

    :func:`_draw_group` per channel group, in first-seen order; then, when
    ``flips`` is set, :func:`_draw_fires` per measurement-probability
    group, in first-seen order.  Raises :class:`ValueError` where
    :func:`~repro.core.events.make_trial` would: two events on one
    ``(layer, qubit)`` of a trial, or a negative layer or qubit.
    """
    if num_trials < 1:
        raise ValueError(f"need at least one trial, got {num_trials}")
    columns: Tuple[List[np.ndarray], ...] = ([], [], [], [])
    for channel, group in _group_positions(model.error_positions(layered)).items():
        for events in _draw_group(channel, group, num_trials, rng):
            for column, values in zip(columns, events):
                column.append(values)
    trial = _concatenate(columns[0], np.intp)
    layer = _concatenate(columns[1], np.int32)
    qubit = _concatenate(columns[2], np.int32)
    pauli = _concatenate(columns[3], np.int8)
    if trial.size:
        key = (trial * (int(layer.max()) + 1) + layer) * (int(qubit.max()) + 1) + qubit
        order = np.argsort(key)
        del key
        trial = trial[order]
        layer = layer[order]
        qubit = qubit[order]
        pauli = pauli[order]
        clash = np.flatnonzero(
            (trial[1:] == trial[:-1])
            & (layer[1:] == layer[:-1])
            & (qubit[1:] == qubit[:-1])
        )
        if clash.size:
            first = clash[0]
            raise ValueError(
                f"duplicate error position (layer {layer[first]}, qubit "
                f"{qubit[first]}) in trial {trial[first]}"
            )

    flip_trials: List[np.ndarray] = []
    flip_clbits: List[np.ndarray] = []
    if flips:
        meas_groups: Dict[float, List[int]] = {}
        for measurement, probability in model.measurement_positions(layered):
            if probability > 0.0:
                meas_groups.setdefault(probability, []).append(measurement.clbit)
        for probability, clbits in meas_groups.items():
            flip_trial, position = _draw_fires(
                len(clbits), probability, num_trials, rng
            )
            flip_trials.append(flip_trial)
            flip_clbits.append(np.array(clbits, dtype=np.intp)[position])
    flip_trial = _concatenate(flip_trials, np.intp)
    flip_clbit = _concatenate(flip_clbits, np.intp)
    if flip_trial.size:
        span = int(flip_clbit.max()) + 1
        key = np.sort(flip_trial * span + flip_clbit)
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        flip_trial, flip_clbit = key // span, key % span
    return _Draw(trial, layer, qubit, pauli, flip_trial, flip_clbit)


def _trial_runs(trial: np.ndarray) -> Iterator[Tuple[int, int, int]]:
    """``(trial, start, end)`` of each run of equal values in sorted ``trial``."""
    if not trial.size:
        return iter(())
    bounds = np.flatnonzero(trial[1:] != trial[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [trial.size]))
    return zip(trial[starts].tolist(), starts.tolist(), ends.tolist())


def _event_objects(draw: _Draw) -> List[ErrorEvent]:
    """The drawn events as ``ErrorEvent`` s of plain ``int`` and ``str``,
    one shared object per distinct event."""
    if not draw.trial.size:
        return []
    span = int(draw.qubit.max()) + 1
    codes, index = np.unique(
        (draw.layer.astype(np.intp) * span + draw.qubit) * len(PAULI_LABELS)
        + draw.pauli,
        return_inverse=True,
    )
    objects = np.empty(codes.size, dtype=object)
    for slot, code in enumerate(codes.tolist()):
        place, pauli = divmod(code, len(PAULI_LABELS))
        objects[slot] = ErrorEvent(*divmod(place, span), PAULI_LABELS[pauli])
    return objects[index].tolist()


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
    draw = _draw_events(layered, model, num_trials, rng, flips=True)
    events = _event_objects(draw)
    error_free = Trial((), ())
    trials = [error_free] * num_trials
    for index, start, end in _trial_runs(draw.trial):
        trials[index] = Trial(tuple(events[start:end]))
    clbits = draw.flip_clbit.tolist()
    for index, start, end in _trial_runs(draw.flip_trial):
        trials[index] = Trial(trials[index].events, tuple(clbits[start:end]))
    return trials


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
