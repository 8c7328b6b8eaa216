"""Device noise models: error operator + position + probability (Sec. III-B).

A :class:`NoiseModel` answers two static questions about a layered circuit:

1. **Where can errors happen?** After every gate — one
   :class:`ErrorPosition` per gate occurrence (the paper's Fig. 3 injects
   one error operator ``E`` after each gate).  The position carries the
   gate's touched qubits and the symmetric depolarizing channel of matching
   width, with the total strength from the calibration entry (single-qubit
   rate, or the two-qubit rate of the specific pair).  A fired multi-qubit
   label (e.g. ``"xz"``) becomes one single-qubit error event per
   non-identity component, all at the same layer.  Optionally, errors
   also fire on *idle* qubits: the paper notes that decay / environment
   errors "can happen without an operation ... at any place across the
   quantum circuit"; setting ``idle_error`` adds one position per
   (layer, untouched qubit), carrying ``idle_channel`` (default
   depolarizing — a Pauli-twirled stand-in for decay, which keeps the
   trial model stochastic-unitary).
2. **How are readout bits corrupted?** A per-qubit classical flip
   probability applied after measurement.

Both questions are answered *without running anything* — the sampler
(:mod:`repro.noise.sampling`) turns the positions into concrete trials, and
the exact enumerator / density-matrix validator consume the same positions,
guaranteeing all three views model the identical noise process.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from ..circuits.circuit import GateOp, Measurement
from ..circuits.layers import LayeredCircuit
from .channels import PauliChannel, uniform_pauli_channel

__all__ = ["ErrorPosition", "NoiseModel"]


class ErrorPosition(NamedTuple):
    """A place where an error may fire: after the gate on ``qubits`` in ``layer``."""

    layer: int
    qubits: Tuple[int, ...]
    channel: PauliChannel


class NoiseModel:
    """Pauli gate-error + classical readout-error model of a device.

    Parameters
    ----------
    single_qubit_error:
        ``qubit -> total error probability`` after a single-qubit gate.
    two_qubit_error:
        ``frozenset({a, b}) -> total error probability`` after a two-qubit
        gate on that pair.
    measurement_error:
        ``qubit -> readout bit-flip probability``.
    default_single / default_two / default_measurement:
        Fallbacks for qubits/pairs absent from the calibration maps.
    idle_error:
        Probability of an error firing on each qubit *not* touched by any
        gate in a layer (Sec. III-B's "error without an operation");
        0 disables idle errors (the paper's evaluation setting).
    idle_channel:
        Conditional operator distribution for idle errors; defaults to the
        symmetric depolarizing channel of strength ``idle_error``.  Pass
        e.g. ``bit_flip(idle_error)`` to model pure decay-style errors.
    """

    def __init__(
        self,
        single_qubit_error: Optional[Dict[int, float]] = None,
        two_qubit_error: Optional[Dict[FrozenSet[int], float]] = None,
        measurement_error: Optional[Dict[int, float]] = None,
        default_single: float = 0.0,
        default_two: float = 0.0,
        default_measurement: float = 0.0,
        idle_error: float = 0.0,
        idle_channel: Optional[PauliChannel] = None,
        name: str = "noise-model",
    ) -> None:
        self.single_qubit_error = dict(single_qubit_error or {})
        self.two_qubit_error = {
            frozenset(pair): prob for pair, prob in (two_qubit_error or {}).items()
        }
        self.measurement_error = dict(measurement_error or {})
        self.default_single = float(default_single)
        self.default_two = float(default_two)
        self.default_measurement = float(default_measurement)
        self.idle_error = float(idle_error)
        if idle_channel is not None and idle_channel.width != 1:
            raise ValueError("idle_channel must be a single-qubit channel")
        if idle_channel is None and self.idle_error > 0.0:
            idle_channel = uniform_pauli_channel(self.idle_error, 1)
        self.idle_channel = idle_channel
        self.name = name
        for label, prob in self._all_probabilities():
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"probability out of range for {label}: {prob}")

    def _all_probabilities(self):
        for qubit, prob in self.single_qubit_error.items():
            yield f"single[{qubit}]", prob
        for pair, prob in self.two_qubit_error.items():
            yield f"two[{sorted(pair)}]", prob
        for qubit, prob in self.measurement_error.items():
            yield f"measure[{qubit}]", prob
        yield "default_single", self.default_single
        yield "default_two", self.default_two
        yield "default_measurement", self.default_measurement
        yield "idle", self.idle_error

    # -- constructors ------------------------------------------------------------

    @classmethod
    def uniform(
        cls,
        single: float,
        two: Optional[float] = None,
        measurement: Optional[float] = None,
        name: str = "uniform",
    ) -> "NoiseModel":
        """Uniform rates for every qubit/pair.

        Following the paper's artificial models (Sec. V-B), two-qubit and
        measurement rates default to ``10x`` the single-qubit rate.
        """
        return cls(
            default_single=single,
            default_two=10.0 * single if two is None else two,
            default_measurement=10.0 * single if measurement is None else measurement,
            name=name,
        )

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(name="noiseless")

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-serializable calibration dictionary (device file format)."""
        payload: Dict = {
            "name": self.name,
            "single_qubit_error": {
                str(q): p for q, p in sorted(self.single_qubit_error.items())
            },
            "two_qubit_error": {
                "-".join(str(q) for q in sorted(pair)): p
                for pair, p in sorted(
                    self.two_qubit_error.items(), key=lambda kv: sorted(kv[0])
                )
            },
            "measurement_error": {
                str(q): p for q, p in sorted(self.measurement_error.items())
            },
            "default_single": self.default_single,
            "default_two": self.default_two,
            "default_measurement": self.default_measurement,
            "idle_error": self.idle_error,
        }
        if self.idle_channel is not None:
            payload["idle_channel"] = self.idle_channel.probabilities
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "NoiseModel":
        """Rebuild a model written by :meth:`to_dict`."""
        idle_channel = None
        if "idle_channel" in payload:
            idle_channel = PauliChannel(payload["idle_channel"])
        return cls(
            single_qubit_error={
                int(q): p
                for q, p in payload.get("single_qubit_error", {}).items()
            },
            two_qubit_error={
                frozenset(int(q) for q in key.split("-")): p
                for key, p in payload.get("two_qubit_error", {}).items()
            },
            measurement_error={
                int(q): p
                for q, p in payload.get("measurement_error", {}).items()
            },
            default_single=payload.get("default_single", 0.0),
            default_two=payload.get("default_two", 0.0),
            default_measurement=payload.get("default_measurement", 0.0),
            idle_error=payload.get("idle_error", 0.0),
            idle_channel=idle_channel,
            name=payload.get("name", "noise-model"),
        )

    def scaled(self, factor: float) -> "NoiseModel":
        """A model with every error probability multiplied by ``factor``.

        Used for noise-sweep studies ("what if the device were 2x
        better?"); probabilities are validated after scaling.
        """
        return NoiseModel(
            single_qubit_error={
                q: p * factor for q, p in self.single_qubit_error.items()
            },
            two_qubit_error={
                pair: p * factor for pair, p in self.two_qubit_error.items()
            },
            measurement_error={
                q: p * factor for q, p in self.measurement_error.items()
            },
            default_single=self.default_single * factor,
            default_two=self.default_two * factor,
            default_measurement=self.default_measurement * factor,
            idle_error=self.idle_error * factor,
            idle_channel=(
                self.idle_channel.scaled(factor)
                if self.idle_channel is not None
                else None
            ),
            name=f"{self.name}-x{factor:g}",
        )

    # -- lookups -------------------------------------------------------------------

    def gate_error_probability(self, op: GateOp) -> float:
        """Total probability that an error fires after ``op``."""
        if op.gate.num_qubits == 1:
            return self.single_qubit_error.get(op.qubits[0], self.default_single)
        pair = frozenset(op.qubits[:2]) if op.gate.num_qubits == 2 else None
        if pair is not None and pair in self.two_qubit_error:
            return self.two_qubit_error[pair]
        return self.default_two

    def measurement_flip_probability(self, measurement: Measurement) -> float:
        return self.measurement_error.get(
            measurement.qubit, self.default_measurement
        )

    # -- static analysis --------------------------------------------------------

    def error_positions(self, layered: LayeredCircuit) -> List[ErrorPosition]:
        """Enumerate every error position of ``layered``, in layer order.

        One position per gate occurrence.  Within a layer, gates are
        qubit-disjoint, so ``(layer, qubits)`` identifies a position
        uniquely.  Positions with zero error probability are omitted — they
        can never fire and would only slow the sampler down.  Each distinct
        ``(probability, width)`` channel is built once per call and shared
        by every gate occurrence that has it.
        """
        positions: List[ErrorPosition] = []
        channels: Dict[Tuple[float, int], PauliChannel] = {}
        idle_active = self.idle_error > 0.0 and self.idle_channel is not None
        for layer_index, layer in enumerate(layered.layers):
            layer_positions = []
            touched = set()
            for op in layer:
                touched.update(op.qubits)
                probability = self.gate_error_probability(op)
                if probability <= 0.0:
                    continue
                key = (probability, len(op.qubits))
                channel = channels.get(key)
                if channel is None:
                    channel = channels[key] = uniform_pauli_channel(*key)
                layer_positions.append(
                    ErrorPosition(layer_index, op.qubits, channel)
                )
            if idle_active:
                for qubit in range(layered.num_qubits):
                    if qubit not in touched:
                        layer_positions.append(
                            ErrorPosition(
                                layer_index, (qubit,), self.idle_channel
                            )
                        )
            layer_positions.sort(key=lambda pos: pos.qubits)
            positions.extend(layer_positions)
        return positions

    def measurement_positions(
        self, layered: LayeredCircuit
    ) -> List[Tuple[Measurement, float]]:
        """Measurements paired with their flip probability (zero-prob kept)."""
        return [
            (meas, self.measurement_flip_probability(meas))
            for meas in layered.measurements
        ]

    # -- exact channel view (for validation) -----------------------------------

    def kraus_after_gate(self, op: GateOp):
        """Kraus channel to apply after ``op`` in density-matrix evolution.

        Matches the Monte-Carlo position model exactly: the symmetric
        depolarizing channel of the gate's width and calibration strength.
        Returns a list with a single ``(kraus_operators, qubits)`` entry
        (empty when the gate is noise-free).
        """
        probability = self.gate_error_probability(op)
        if probability <= 0.0:
            return []
        channel = uniform_pauli_channel(probability, len(op.qubits))
        return [(channel.kraus_operators(), op.qubits)]

    def kraus_for_layer(self, layered: LayeredCircuit, layer_index: int):
        """All channels firing at the end of one layer: gate + idle.

        Used by :func:`repro.sim.density.run_layered_density` to validate
        the trial model (including idle errors) against exact channel
        evolution.
        """
        channels = []
        touched = set()
        for op in layered.layers[layer_index]:
            touched.update(op.qubits)
            channels.extend(self.kraus_after_gate(op))
        if self.idle_error > 0.0 and self.idle_channel is not None:
            for qubit in range(layered.num_qubits):
                if qubit not in touched:
                    channels.append(
                        (self.idle_channel.kraus_operators(), (qubit,))
                    )
        return channels

    def __repr__(self) -> str:
        return (
            f"NoiseModel({self.name!r}, default_single={self.default_single}, "
            f"default_two={self.default_two}, "
            f"default_measurement={self.default_measurement})"
        )
