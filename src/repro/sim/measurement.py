"""Measurement sampling and classical readout errors.

Measurement errors in the paper's model (Sec. III-B-1) are classical: after
a qubit is measured, the resulting bit is flipped with a device-specific
probability.  Flips therefore never touch the statevector and never affect
prefix reuse — they are applied here, to sampled bitstrings, after the
quantum part of a trial finished.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

from ..circuits.circuit import Measurement
from .statevector import Statevector

__all__ = [
    "sample_outcomes",
    "outcome_clbits",
    "sample_measurements",
    "apply_readout_flips",
    "clbits_bitstring",
    "counts_from_samples",
    "merge_counts",
]


def sample_outcomes(
    state: Statevector, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` computational-basis outcomes of ``state`` at once.

    Builds the outcome CDF once and inverts ``count`` uniforms through it:
    exactly the arithmetic of ``rng.choice(probs.size, p=probs)``, so the
    draws and the generator state afterwards equal ``count`` such calls.
    Returns the basis indices (qubit 0 most significant) in draw order.
    """
    probs = state.probabilities()
    # Guard against tiny negative values from float error (an in-place clip).
    np.maximum(probs, 0.0, out=probs)
    probs /= probs.sum()
    cdf = probs.cumsum()
    if math.isnan(cdf[-1]):
        raise ValueError("Probabilities contain NaN")
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(count), side="right")


def outcome_clbits(
    outcome: int, num_qubits: int, measurements: Sequence[Measurement]
) -> Dict[int, int]:
    """The ``clbit -> bit`` map that basis outcome ``outcome`` reads out."""
    return {
        meas.clbit: (outcome >> (num_qubits - 1 - meas.qubit)) & 1
        for meas in measurements
    }


def sample_measurements(
    state: Statevector,
    measurements: Sequence[Measurement],
    rng: np.random.Generator,
) -> Dict[int, int]:
    """Sample one joint outcome of ``measurements`` from ``state``.

    Returns a ``clbit -> bit`` map.  The joint outcome is drawn in a single
    multinomial draw from the full distribution (all listed measurements are
    terminal, so no collapse ordering matters).
    """
    outcome = int(sample_outcomes(state, 1, rng)[0])
    return outcome_clbits(outcome, state.num_qubits, measurements)


def apply_readout_flips(
    clbits: Dict[int, int], flipped_clbits: Sequence[int]
) -> Dict[int, int]:
    """Return a copy of ``clbits`` with the listed classical bits flipped."""
    result = dict(clbits)
    for clbit in flipped_clbits:
        if clbit in result:
            result[clbit] ^= 1
    return result


def clbits_bitstring(clbits: Dict[int, int], num_clbits: int) -> str:
    """``clbits`` as a bitstring: clbit 0 leftmost, unmeasured bits 0."""
    return "".join(str(clbits.get(c, 0)) for c in range(num_clbits))


def counts_from_samples(
    samples: Sequence[Dict[int, int]], num_clbits: int
) -> Dict[str, int]:
    """Aggregate per-trial clbit maps into bitstring counts.

    Bit 0 of the string is clbit 0 (leftmost), matching the statevector
    bitstring convention.  Unmeasured clbits read as 0.
    """
    counts: Dict[str, int] = {}
    for sample in samples:
        bits = clbits_bitstring(sample, num_clbits)
        counts[bits] = counts.get(bits, 0) + 1
    return counts


def merge_counts(*count_maps: Dict[str, int]) -> Dict[str, int]:
    """Sum several bitstring-count histograms."""
    merged: Dict[str, int] = {}
    for counts in count_maps:
        for bits, count in counts.items():
            merged[bits] = merged.get(bits, 0) + count
    return merged
