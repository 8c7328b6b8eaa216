"""Tests for the backend protocol: statevector vs counting parity."""

import numpy as np
import pytest

from repro.circuits import layerize, standard_gate
from repro.sim import CountingBackend, Statevector, StatevectorBackend


@pytest.fixture
def layered(ghz3_circuit):
    return layerize(ghz3_circuit)


class TestStatevectorBackend:
    def test_make_initial(self, layered):
        backend = StatevectorBackend(layered)
        state = backend.make_initial()
        assert isinstance(state, Statevector)
        assert state.probability_of("000") == pytest.approx(1.0)

    def test_apply_layers_counts_ops(self, layered):
        backend = StatevectorBackend(layered)
        state = backend.make_initial()
        backend.apply_layers(state, 0, layered.num_layers)
        assert backend.ops_applied == layered.num_gates

    def test_apply_layers_evolves(self, layered):
        backend = StatevectorBackend(layered)
        state = backend.make_initial()
        backend.apply_layers(state, 0, layered.num_layers)
        probs = state.probabilities()
        assert probs[0] == pytest.approx(0.5)
        assert probs[-1] == pytest.approx(0.5)

    def test_apply_operator_counts_one(self, layered):
        backend = StatevectorBackend(layered)
        state = backend.make_initial()
        backend.apply_operator(state, standard_gate("x"), (0,))
        assert backend.ops_applied == 1
        assert state.probability_of("100") == pytest.approx(1.0)

    def test_copy_is_independent_and_tracked(self, layered):
        backend = StatevectorBackend(layered)
        state = backend.make_initial()
        dup = backend.copy_state(state)
        backend.apply_operator(dup, standard_gate("x"), (0,))
        assert state.probability_of("000") == pytest.approx(1.0)
        assert backend.live_states == 2
        backend.release_state(dup)
        assert backend.live_states == 1
        assert backend.peak_live_states == 2

    def test_finish_lends_the_state(self, layered):
        # The payload is the final state itself: no copy, no new live
        # state.  A callback that keeps it past on_finish copies it.
        backend = StatevectorBackend(layered)
        state = backend.make_initial()
        assert backend.finish(state) is state
        assert backend.live_states == backend.peak_live_states == 1

    def test_reset_counter(self, layered):
        backend = StatevectorBackend(layered)
        state = backend.make_initial()
        backend.apply_operator(state, standard_gate("x"), (0,))
        backend.reset_counter()
        assert backend.ops_applied == 0


class TestCountingBackend:
    def test_counts_match_statevector_backend(self, layered):
        counting = CountingBackend(layered)
        real = StatevectorBackend(layered)
        c_state = counting.make_initial()
        r_state = real.make_initial()
        for backend, state in ((counting, c_state), (real, r_state)):
            backend.apply_layers(state, 0, 2)
            backend.apply_operator(state, standard_gate("z"), (1,))
            backend.apply_layers(state, 2, layered.num_layers)
        assert counting.ops_applied == real.ops_applied

    def test_finish_returns_none(self, layered):
        backend = CountingBackend(layered)
        assert backend.finish(backend.make_initial()) is None

    def test_live_tracking(self, layered):
        backend = CountingBackend(layered)
        a = backend.make_initial()
        b = backend.copy_state(a)
        assert backend.live_states == 2
        backend.release_state(b)
        assert backend.live_states == 1
        assert backend.peak_live_states == 2

    def test_layer_range_ops_closed_form(self, layered):
        backend = CountingBackend(layered)
        state = backend.make_initial()
        backend.apply_layers(state, 1, 3)
        assert backend.ops_applied == layered.gates_between(1, 3)
