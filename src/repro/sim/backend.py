"""The execution-backend protocol shared by real and counting simulation.

The trial-reordering scheduler (:mod:`repro.core.schedule`) is written once
against this small protocol and runs unchanged on two backends:

* :class:`~repro.sim.statevector_backend.StatevectorBackend` — real numpy
  amplitudes; ``finish`` returns the per-trial final state, so results can be
  compared bit-for-bit against baseline re-execution.
* :class:`~repro.sim.counting.CountingBackend` — no amplitudes at all;
  segment costs are added in closed form from per-layer gate counts, which is
  what makes the paper's 40-qubit scalability study (Figs. 7–8) runnable.

Every backend keeps an operation counter with the paper's metric: one unit
per matrix-vector multiplication, i.e. per gate application and per injected
error operator.  Measurements and classical bit flips are free.
"""

from __future__ import annotations

import abc
from typing import Any, Optional, Sequence

import numpy as np

from ..circuits.gates import Gate
from ..circuits.layers import LayeredCircuit
from .statevector import Statevector, require_state_layout

__all__ = ["SimulationBackend", "StatevectorBackend"]


class SimulationBackend(abc.ABC):
    """Abstract state factory + evolver with basic-operation accounting."""

    def __init__(self, layered: LayeredCircuit) -> None:
        self.layered = layered
        self.ops_applied = 0
        #: Optional :class:`~repro.obs.recorder.TraceRecorder`; attached by
        #: the executor at run start.  Backends that instrument their hot
        #: path must guard every touch with a single ``if self.recorder:``.
        self.recorder = None

    def reset_counter(self) -> None:
        self.ops_applied = 0

    def set_recorder(self, recorder) -> None:
        """Attach (or detach, with ``None``) a trace recorder."""
        self.recorder = recorder

    # -- state lifecycle ------------------------------------------------------

    @abc.abstractmethod
    def make_initial(self) -> Any:
        """A fresh state at layer 0 (|0...0>)."""

    @abc.abstractmethod
    def copy_state(self, state: Any) -> Any:
        """An independent snapshot of ``state`` (for the prefix cache)."""

    def adopt_state(self, state: Any) -> Any:
        """Take ownership of an externally created state (live-state hook).

        The executor adopts a reloaded spilled snapshot and a prefix state
        fetched from the cross-job store (and the hybrid executor its
        materialized states); backends that track live states count it
        here exactly as they would a ``make_initial`` state.
        """
        return state

    def release_state(self, state: Any) -> None:
        """Hook for backends that track live states; default is a no-op."""

    # -- evolution ---------------------------------------------------------------

    @abc.abstractmethod
    def apply_layers(self, state: Any, start_layer: int, end_layer: int) -> None:
        """Apply all gates in layers ``start_layer .. end_layer - 1``."""

    @abc.abstractmethod
    def apply_operator(self, state: Any, gate: Gate, qubits: Sequence[int]) -> None:
        """Apply one injected error operator (one basic operation)."""

    @abc.abstractmethod
    def finish(self, state: Any) -> Any:
        """The per-trial payload of a state at the final layer.

        The executors lend the payload to ``on_finish`` for the length of
        the call: it may be ``state`` itself, which the executor goes on
        to release or advance, so a callback that keeps it past the call
        copies it.
        """

    def sample_clbits(
        self, payload: Any, measurements: Sequence[Any], rng: np.random.Generator
    ) -> Optional[dict]:
        """Sample one joint measurement outcome from a finish payload.

        Returns ``clbit -> bit`` or ``None`` for backends without readout
        (the counting backend).  Default: no readout.
        """
        return None


class StatevectorBackend(SimulationBackend):
    """Real dense statevector execution."""

    def __init__(self, layered: LayeredCircuit) -> None:
        super().__init__(layered)
        self.live_states = 0
        self.peak_live_states = 0

    def _track_new_state(self) -> None:
        self.live_states += 1
        self.peak_live_states = max(self.peak_live_states, self.live_states)

    def make_initial(self) -> Statevector:
        self._track_new_state()
        return Statevector(self.layered.num_qubits)

    def copy_state(self, state: Statevector) -> Statevector:
        self._track_new_state()
        return state.copy()

    def adopt_state(self, state: Statevector) -> Statevector:
        # Externally built states (spill reloads, shared-store prefixes)
        # are the one place a badly laid-out buffer could reach the
        # kernels; fail loudly instead of degrading to copy semantics.
        require_state_layout(state._tensor, "adopt_state")
        self._track_new_state()
        return state

    def release_state(self, state: Statevector) -> None:
        self.live_states -= 1

    def apply_layers(self, state: Statevector, start_layer: int, end_layer: int) -> None:
        for layer_index in range(start_layer, end_layer):
            for op in self.layered.layers[layer_index]:
                state.apply_op(op)
        self.ops_applied += self.layered.gates_between(start_layer, end_layer)

    def apply_operator(self, state: Statevector, gate: Gate, qubits: Sequence[int]) -> None:
        state.apply_gate(gate, qubits)
        self.ops_applied += 1

    def finish(self, state: Statevector) -> Statevector:
        """The final state itself, lent (see :meth:`SimulationBackend.finish`)."""
        return state

    def sample_clbits(
        self, payload: Statevector, measurements: Sequence[Any], rng: np.random.Generator
    ) -> dict:
        from .measurement import sample_measurements

        return sample_measurements(payload, measurements, rng)
