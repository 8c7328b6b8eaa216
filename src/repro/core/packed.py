"""Packed large-scale trial analysis: the paper's 10^6-trial setting.

The object pipeline (``Trial`` tuples -> trie -> plan -> executor) is ideal
for real statevector runs, but the scalability study (Figs. 7-8: 10^6
trials on 40-qubit circuits) only needs the *metrics* — operation counts
and peak MSVs.  This module computes exactly those numbers with two
orders of magnitude less memory:

* each error event is packed into **5 bytes** (big-endian layer, qubit,
  Pauli index), and a trial is the concatenation of its sorted events —
  so Python's plain ``bytes`` comparison is precisely the lexicographic
  trial order of Algorithm 1;
* trials are sampled straight into that form from the object sampler's
  event arrays (:func:`sample_packed_trials`), so no ``Trial`` object is
  ever built;
* after sorting, a **single streaming pass** with an explicit frame stack
  replays the scheduler's semantics arithmetically: frame creation pays
  the parent's layer advance plus one inject, a frame popped with pending
  terminals pays the advance-to-end, and peak MSV is computed bottom-up
  from per-frame relative peaks (a child subtree contributes ``+1`` while
  its parent still has consumers — the snapshot — and ``+0`` when it is
  the parent's last consumer and steals the state).

Exact parity with the real executor is property-tested: for random trial
sets the streaming analysis must report the identical operation count and
peak MSV as ``run_optimized`` on the counting backend.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..circuits.layers import LayeredCircuit
from ..noise.model import NoiseModel
from ..noise.sampling import _draw_events, _trial_runs
from .events import PAULI_LABELS, Trial

__all__ = [
    "EVENT_BYTES",
    "pack_trial",
    "pack_trials",
    "unpack_trial_events",
    "sample_packed_trials",
    "PackedAnalysis",
    "analyze_packed_trials",
]

#: Bytes per packed event: 2 (layer) + 2 (qubit) + 1 (Pauli index).
EVENT_BYTES = 5

_PAULI_INDEX: Dict[str, int] = {label: i for i, label in enumerate(PAULI_LABELS)}


def _pack_event(layer: int, qubit: int, pauli_index: int) -> bytes:
    if layer >= 1 << 16 or qubit >= 1 << 16:
        raise ValueError(f"event ({layer}, {qubit}) exceeds the 16-bit packing")
    return bytes(
        (layer >> 8, layer & 0xFF, qubit >> 8, qubit & 0xFF, pauli_index)
    )


def pack_trial(trial: Trial) -> bytes:
    """Pack a :class:`Trial`'s events (measurement flips are not encoded)."""
    return b"".join(
        _pack_event(event.layer, event.qubit, _PAULI_INDEX[event.pauli])
        for event in trial.events
    )


def pack_trials(trials: Sequence[Trial]) -> List[bytes]:
    """Pack every trial; byte order == Algorithm 1's lexicographic order."""
    return [pack_trial(trial) for trial in trials]


def unpack_trial_events(packed: bytes) -> List[Tuple[int, int, str]]:
    """Decode a packed trial back into ``(layer, qubit, pauli)`` tuples."""
    if len(packed) % EVENT_BYTES:
        raise ValueError(f"packed length {len(packed)} not a multiple of 5")
    events = []
    for offset in range(0, len(packed), EVENT_BYTES):
        chunk = packed[offset : offset + EVENT_BYTES]
        layer = (chunk[0] << 8) | chunk[1]
        qubit = (chunk[2] << 8) | chunk[3]
        events.append((layer, qubit, PAULI_LABELS[chunk[4]]))
    return events


def sample_packed_trials(
    layered: LayeredCircuit,
    model: NoiseModel,
    num_trials: int,
    rng: np.random.Generator,
) -> List[bytes]:
    """Sample trials directly in packed form (no Trial objects).

    The same draw as :func:`repro.noise.sampling.sample_trials`, packed
    straight from its event arrays: on the same generator state, trial
    ``i`` here is ``pack_trial`` of trial ``i`` there.  Measurement flips
    are not sampled — the packed path computes cost metrics, which readout
    flips never affect, and the flips are drawn after every event.
    """
    draw = _draw_events(layered, model, num_trials, rng, flips=False)
    if draw.trial.size and max(draw.layer.max(), draw.qubit.max()) >= 1 << 16:
        raise ValueError("an event exceeds the 16-bit packing")
    rows = np.empty((draw.trial.size, EVENT_BYTES), dtype=np.uint8)
    rows[:, 0], rows[:, 1] = draw.layer >> 8, draw.layer & 0xFF
    rows[:, 2], rows[:, 3] = draw.qubit >> 8, draw.qubit & 0xFF
    rows[:, 4] = draw.pauli
    data = rows.tobytes()
    packed = [b""] * num_trials
    for index, start, end in _trial_runs(draw.trial):
        packed[index] = data[start * EVENT_BYTES : end * EVENT_BYTES]
    return packed


def _lcp_events(a: bytes, b: bytes) -> int:
    """Number of leading shared events between two packed trials."""
    if a == b:
        return len(a) // EVENT_BYTES
    limit = min(len(a), len(b))
    shared = 0
    offset = 0
    while offset < limit and a[offset : offset + EVENT_BYTES] == b[
        offset : offset + EVENT_BYTES
    ]:
        shared += 1
        offset += EVENT_BYTES
    return shared


class PackedAnalysis:
    """Metrics of a packed-trial analysis (mirrors :class:`RunMetrics`)."""

    def __init__(
        self,
        num_trials: int,
        num_distinct_trials: int,
        optimized_ops: int,
        baseline_ops: int,
        peak_msv: int,
        total_events: int,
    ) -> None:
        self.num_trials = num_trials
        self.num_distinct_trials = num_distinct_trials
        self.optimized_ops = optimized_ops
        self.baseline_ops = baseline_ops
        self.peak_msv = peak_msv
        self.total_events = total_events

    @property
    def normalized_computation(self) -> float:
        if self.baseline_ops == 0:
            return 1.0
        return self.optimized_ops / self.baseline_ops

    @property
    def computation_saving(self) -> float:
        return 1.0 - self.normalized_computation

    def __repr__(self) -> str:
        return (
            f"PackedAnalysis(trials={self.num_trials}, "
            f"normalized={self.normalized_computation:.3f}, "
            f"msv={self.peak_msv})"
        )


class _Frame:
    """One node of the (implicit) trie on the streaming stack."""

    __slots__ = ("cursor", "has_terminal", "best_child", "last_child_peak")

    def __init__(self, cursor: int) -> None:
        #: Layer this node's state has advanced to so far.
        self.cursor = cursor
        #: A trial terminates exactly at this node (finish-to-end pending).
        self.has_terminal = False
        #: Max over completed non-last children of (child_rel_peak + 1).
        self.best_child = 0
        #: rel_peak of the most recently completed child (may become last).
        self.last_child_peak = 0


def analyze_packed_trials(
    layered: LayeredCircuit, packed: Sequence[bytes]
) -> PackedAnalysis:
    """Compute the optimized run's metrics from packed trials.

    Sorts the trials (Algorithm 1) and streams once over them, replaying
    the scheduler's cost and memory semantics without building a trie or
    touching amplitudes.  Equivalent to ``run_optimized`` with the
    counting backend (property-tested), but O(active-path) memory.
    """
    if not packed:
        raise ValueError("cannot analyze an empty trial set")
    num_layers = layered.num_layers
    ordered = sorted(packed)

    total_events = sum(len(p) for p in ordered) // EVENT_BYTES
    baseline_ops = len(ordered) * layered.num_gates + total_events

    ops = 0
    stack: List[_Frame] = [_Frame(0)]

    def close_frame() -> int:
        """Pop the deepest frame; returns its relative MSV peak."""
        nonlocal ops
        frame = stack.pop()
        if frame.has_terminal:
            ops += layered.gates_between(frame.cursor, num_layers)
        # The final child steals the state (no snapshot) unless the frame
        # still had a terminal pending, which keeps a snapshot alive.
        final_bonus = 1 if frame.has_terminal else 0
        return max(
            1,
            frame.best_child,
            frame.last_child_peak + final_bonus,
        )

    def fold_child(parent: _Frame, child_peak: int) -> None:
        """A completed child turned out not to be the parent's last."""
        parent.best_child = max(parent.best_child, parent.last_child_peak + 1)
        parent.last_child_peak = child_peak

    previous = None
    num_distinct = 0
    for trial in ordered:
        if trial == previous:
            continue  # duplicate: zero marginal cost, terminal already set
        num_distinct += 1
        shared = _lcp_events(previous, trial) if previous is not None else 0
        # Pop frames deeper than the shared prefix.
        while len(stack) - 1 > shared:
            child_peak = close_frame()
            fold_child(stack[-1], child_peak)
        # Descend through the new suffix events.
        for offset in range(
            shared * EVENT_BYTES, len(trial), EVENT_BYTES
        ):
            layer = (trial[offset] << 8) | trial[offset + 1]
            parent = stack[-1]
            target = layer + 1
            if target > parent.cursor:
                ops += layered.gates_between(parent.cursor, target)
                parent.cursor = target
            ops += 1  # the injected error operator
            stack.append(_Frame(parent.cursor))
        stack[-1].has_terminal = True
        previous = trial

    while len(stack) > 1:
        child_peak = close_frame()
        fold_child(stack[-1], child_peak)
    peak_msv = close_frame()

    return PackedAnalysis(
        num_trials=len(ordered),
        num_distinct_trials=num_distinct,
        optimized_ops=ops,
        baseline_ops=baseline_ops,
        peak_msv=peak_msv,
        total_events=total_events,
    )
