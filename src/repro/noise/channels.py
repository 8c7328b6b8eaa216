"""Noise channels: symmetric depolarizing Pauli channels of any width.

The paper's experiments use the symmetric depolarization error channel
(Sec. III-B-2, Fig. 3): after each gate an error operator is injected with
some probability.  For single-qubit gates the operator alphabet is
{X, Y, Z}; for two-qubit gates it is the 15 non-identity two-qubit Paulis
{I, X, Y, Z}^2 \\ {II} — the standard ``depolarizing_error(p, 2)`` model.

A :class:`PauliChannel` is a distribution over Pauli *labels* — strings
over ``"ixyz"`` of the channel's width, never all-identity.  We
parameterize channels by the *total* error probability ``p_total`` — the
number device calibration sheets report — and expose both the Monte-Carlo
view (sample a label) and the exact Kraus view (for density-matrix
validation).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "PauliChannel",
    "depolarizing",
    "two_qubit_depolarizing",
    "uniform_pauli_channel",
    "bit_flip",
    "phase_flip",
    "pauli_matrix",
    "pauli_label_matrix",
]

_PAULI_MATRICES: Dict[str, np.ndarray] = {
    "i": np.eye(2, dtype=np.complex128),
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def pauli_matrix(label: str) -> np.ndarray:
    """The 2x2 Pauli matrix for label ``"i"/"x"/"y"/"z"``."""
    try:
        return _PAULI_MATRICES[label.lower()]
    except KeyError:
        raise ValueError(f"unknown Pauli label {label!r}") from None


def pauli_label_matrix(label: str) -> np.ndarray:
    """The ``2**len(label)`` square matrix of a multi-qubit Pauli label."""
    if not label:
        raise ValueError("empty Pauli label")
    matrix = pauli_matrix(label[0])
    for char in label[1:]:
        matrix = np.kron(matrix, pauli_matrix(char))
    return matrix


def _check_label(label: str) -> str:
    lowered = label.lower()
    if not lowered or set(lowered) - set("ixyz"):
        raise ValueError(f"bad Pauli label {label!r}")
    if set(lowered) == {"i"}:
        raise ValueError(f"all-identity error label {label!r} is not an error")
    return lowered


class PauliChannel:
    """A Pauli error channel over ``width`` qubits.

    Parameters
    ----------
    probabilities:
        Map from Pauli label (e.g. ``"x"`` for width 1, ``"xz"`` / ``"ix"``
        for width 2) to the probability that this operator is injected.
        The all-identity outcome gets the remaining probability.  All
        labels must share one width.
    """

    __slots__ = ("_probs", "_labels", "_total", "_width", "_draw", "_hash")

    def __init__(self, probabilities: Dict[str, float]) -> None:
        cleaned: Dict[str, float] = {}
        width = None
        for label, prob in probabilities.items():
            label = _check_label(label)
            if width is None:
                width = len(label)
            elif len(label) != width:
                raise ValueError(
                    f"mixed label widths: {len(label)} vs {width}"
                )
            if prob < 0:
                raise ValueError(f"negative probability for {label!r}: {prob}")
            if prob > 0:
                cleaned[label] = cleaned.get(label, 0.0) + float(prob)
        if width is None:
            raise ValueError("channel needs at least one error label")
        total = sum(cleaned.values())
        if total > 1.0 + 1e-12:
            raise ValueError(f"error probabilities sum to {total} > 1")
        self._probs = cleaned
        self._labels = tuple(sorted(cleaned))
        self._total = min(total, 1.0)
        self._width = width
        # The channel is immutable (``probabilities`` returns a copy), so
        # its hash is computed once: the sampler groups positions by it.
        self._hash = hash(tuple(sorted(cleaned.items())))
        # (labels, CDF), built on the first draw: a noise model makes one
        # channel per error position, but the sampler draws from one per
        # group of equal channels.
        self._draw: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def width(self) -> int:
        """Number of qubits the channel acts on."""
        return self._width

    @property
    def total_probability(self) -> float:
        """Probability that *any* (non-identity) error fires."""
        return self._total

    @property
    def probabilities(self) -> Dict[str, float]:
        return dict(self._probs)

    def labels(self) -> Tuple[str, ...]:
        return self._labels

    def sample_label(self, rng: np.random.Generator) -> str:
        """Draw an error label *given that an error fired*."""
        return str(self.sample_labels(1, rng)[0])

    def sample_labels(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` labels given that an error fired in each draw.

        A one-label channel draws nothing; otherwise each label consumes
        one uniform, exactly as ``count`` draws of
        ``rng.choice(labels, p=weights / total)`` would.
        """
        if len(self._labels) == 1:
            return np.full(count, self._labels[0])
        if self._draw is None:
            if not self._labels:
                raise ValueError("a zero-probability channel has no label to draw")
            # The array and arithmetic of ``rng.choice(labels, p=...)``.
            weights = np.array([self._probs[label] for label in self._labels])
            cdf = (weights / self._total).cumsum()
            cdf /= cdf[-1]
            self._draw = (np.array(self._labels), cdf)
        labels, cdf = self._draw
        return labels[cdf.searchsorted(rng.random(count), side="right")]

    def conditional_probability(self, label: str) -> float:
        """P(operator == label | an error fired)."""
        if self._total == 0:
            return 0.0
        return self._probs.get(label.lower(), 0.0) / self._total

    def kraus_operators(self) -> List[np.ndarray]:
        """The exact Kraus representation (for density-matrix evolution)."""
        dim = 2**self._width
        operators = [math.sqrt(1.0 - self._total) * np.eye(dim)]
        for label in self._labels:
            operators.append(
                math.sqrt(self._probs[label]) * pauli_label_matrix(label)
            )
        return operators

    def scaled(self, factor: float) -> "PauliChannel":
        """A channel with every error probability multiplied by ``factor``."""
        return PauliChannel({k: v * factor for k, v in self._probs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliChannel):
            return NotImplemented
        return self._probs == other._probs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if len(self._probs) > 4:
            return (
                f"PauliChannel(width={self._width}, "
                f"p_total={self._total:.3g}, labels={len(self._labels)})"
            )
        body = ", ".join(f"{k}={v:.3g}" for k, v in sorted(self._probs.items()))
        return f"PauliChannel({body})"


def uniform_pauli_channel(total_probability: float, width: int) -> PauliChannel:
    """Symmetric depolarizing on ``width`` qubits.

    Distributes ``total_probability`` uniformly over the ``4**width - 1``
    non-identity Pauli labels.
    """
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    labels = [
        "".join(combo)
        for combo in itertools.product("ixyz", repeat=width)
        if set(combo) != {"i"}
    ]
    share = total_probability / len(labels)
    return PauliChannel({label: share for label in labels})


def depolarizing(total_probability: float) -> PauliChannel:
    """Single-qubit symmetric depolarizing: X, Y, Z each ``p_total / 3``."""
    return uniform_pauli_channel(total_probability, 1)


def two_qubit_depolarizing(total_probability: float) -> PauliChannel:
    """Two-qubit symmetric depolarizing over the 15 non-identity Paulis."""
    return uniform_pauli_channel(total_probability, 2)


def bit_flip(probability: float) -> PauliChannel:
    return PauliChannel({"x": probability})


def phase_flip(probability: float) -> PauliChannel:
    return PauliChannel({"z": probability})
