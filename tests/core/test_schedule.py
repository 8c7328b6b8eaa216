"""Tests for execution-plan generation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings

from repro import NoisySimulator
from repro.bench.suite import resolve_benchmark
from repro.circuits import QuantumCircuit, layerize
from repro.core import (
    Advance,
    ErrorEvent,
    Finish,
    Inject,
    Restore,
    ScheduleError,
    Snapshot,
    build_plan,
    make_trial,
)
from repro.sim import CountingBackend
from repro.core.executor import run_optimized
from repro.core.events import Trial
from repro.core.schedule import PlanWalk, SlotEntry
from tests.core.test_reorder import trials_strategy


@pytest.fixture
def three_layer_circuit():
    """One gate per layer, three layers — the Fig. 2 setting."""
    circ = QuantumCircuit(2)
    circ.h(0).h(0).h(0)
    circ.measure_all()
    return layerize(circ)


class TestPlanStructure:
    def test_single_error_free_trial(self, three_layer_circuit):
        plan = build_plan(three_layer_circuit, [make_trial([])])
        plan.validate()
        assert plan.count(Advance) == 1
        assert plan.count(Finish) == 1
        assert plan.count(Snapshot) == 0
        assert plan.planned_operations(three_layer_circuit) == 3

    def test_empty_trials_rejected(self, three_layer_circuit):
        with pytest.raises(ScheduleError):
            build_plan(three_layer_circuit, [])

    def test_event_beyond_depth_rejected(self, three_layer_circuit):
        with pytest.raises(ScheduleError):
            build_plan(three_layer_circuit, [make_trial([ErrorEvent(9, 0, "x")])])

    def test_event_beyond_qubits_rejected(self, three_layer_circuit):
        with pytest.raises(ScheduleError):
            build_plan(three_layer_circuit, [make_trial([ErrorEvent(0, 7, "x")])])

    def test_duplicate_trials_finish_together(self, three_layer_circuit):
        trial = make_trial([ErrorEvent(0, 0, "x")])
        plan = build_plan(three_layer_circuit, [trial, trial])
        finishes = [i for i in plan if isinstance(i, Finish)]
        assert len(finishes) == 1
        assert finishes[0].trial_indices == (0, 1)

    def test_fig2_example_costs(self, three_layer_circuit):
        """The paper's Fig. 2: one error-free + three one-error trials.

        Optimized: 6 layer applications + 3 injected errors = 9 ops vs the
        baseline's 4 x 3 + 3 = 15, and only ONE stored state vector at a
        time (the paper's optimized order 3-2-1).
        """
        trials = [
            make_trial([]),
            make_trial([ErrorEvent(2, 0, "x")]),
            make_trial([ErrorEvent(1, 0, "x")]),
            make_trial([ErrorEvent(0, 0, "x")]),
        ]
        plan = build_plan(three_layer_circuit, trials)
        plan.validate()
        assert plan.planned_operations(three_layer_circuit) == 9
        backend = CountingBackend(three_layer_circuit)
        outcome = run_optimized(three_layer_circuit, trials, backend, plan=plan)
        assert outcome.ops_applied == 9
        assert outcome.cache_stats.peak_stored == 1

    def test_last_consumer_steals_state(self, three_layer_circuit):
        """A node whose only consumer is one child takes no snapshot."""
        trial = make_trial([ErrorEvent(1, 0, "x")])
        plan = build_plan(three_layer_circuit, [trial])
        assert plan.count(Snapshot) == 0
        assert plan.count(Restore) == 0

    def test_terminal_forces_snapshot(self, three_layer_circuit):
        """A node with a terminal trial and a child must snapshot."""
        trials = [make_trial([]), make_trial([ErrorEvent(0, 0, "x")])]
        plan = build_plan(three_layer_circuit, trials)
        assert plan.count(Snapshot) == 1
        assert plan.count(Restore) == 1

    def test_layer_advance_monotone(self, three_layer_circuit):
        trials = [
            make_trial([ErrorEvent(0, 0, "x")]),
            make_trial([ErrorEvent(1, 0, "y")]),
            make_trial([ErrorEvent(2, 1, "z")]),
        ]
        plan = build_plan(three_layer_circuit, trials)
        plan.validate()

    def test_finished_indices_complete(self, three_layer_circuit):
        trials = [
            make_trial([ErrorEvent(1, 0, "x")]),
            make_trial([]),
            make_trial([ErrorEvent(1, 0, "x"), ErrorEvent(2, 0, "z")]),
        ]
        plan = build_plan(three_layer_circuit, trials)
        assert sorted(plan.finished_trial_indices()) == [0, 1, 2]


class TestOutOfRangeEvents:
    """Every executor rejects an event outside the circuit's layers or
    qubits with the plan builder's error, before it touches a state."""

    @staticmethod
    def _bad_trials(layered, where):
        event = {
            "layer": ErrorEvent(layered.num_layers + 3, 0, "x"),
            "qubit": ErrorEvent(1, layered.num_qubits + 4, "x"),
            "negative-layer": ErrorEvent(-1, 0, "x"),
            "negative-qubit": ErrorEvent(1, -1, "x"),
        }[where]
        # Built directly: make_trial would reject the negative positions
        # itself, but run(trials=...) takes any Trial.
        return event, [Trial(()), Trial((event,))]

    @pytest.mark.parametrize(
        "where", ["layer", "qubit", "negative-layer", "negative-qubit"]
    )
    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"hybrid": True},
            {"journal": "run.journal"},
            {"mode": "baseline"},
        ],
        ids=["dfs", "hybrid", "journal", "baseline"],
    )
    def test_every_executor_names_the_event(self, tmp_path, options, where):
        circuit, model = resolve_benchmark("bv4")
        sim = NoisySimulator(circuit, model, seed=1)
        event, trials = self._bad_trials(sim.layered, where)
        if "journal" in options:
            options = dict(options, journal=str(tmp_path / options["journal"]))
        bound = "circuit depth" if where.endswith("layer") else "qubit count"
        with pytest.raises(
            ScheduleError, match=re.escape(f"event {event} beyond {bound}")
        ):
            sim.run(trials=trials, **options)


class TestPlanValidation:
    def test_validate_catches_double_snapshot(self, three_layer_circuit):
        from repro.core.schedule import ExecutionPlan

        plan = ExecutionPlan(
            [Snapshot(0), Snapshot(0)], num_trials=0, num_layers=3
        )
        with pytest.raises(ScheduleError):
            plan.validate()

    def test_validate_catches_unknown_restore(self, three_layer_circuit):
        from repro.core.schedule import ExecutionPlan

        plan = ExecutionPlan([Restore(5)], num_trials=0, num_layers=3)
        with pytest.raises(ScheduleError):
            plan.validate()

    def test_validate_catches_leaked_slot(self):
        from repro.core.schedule import ExecutionPlan

        plan = ExecutionPlan([Snapshot(0)], num_trials=0, num_layers=3)
        with pytest.raises(ScheduleError):
            plan.validate()

    def test_validate_catches_double_finish(self):
        from repro.core.schedule import ExecutionPlan

        plan = ExecutionPlan(
            [Finish((0,)), Finish((0,))], num_trials=1, num_layers=1
        )
        with pytest.raises(ScheduleError):
            plan.validate()

    def test_validate_catches_missing_trials(self):
        from repro.core.schedule import ExecutionPlan

        plan = ExecutionPlan([Finish((0,))], num_trials=2, num_layers=1)
        with pytest.raises(ScheduleError):
            plan.validate()

    def test_validate_catches_bad_advance(self):
        from repro.core.schedule import ExecutionPlan

        plan = ExecutionPlan([Advance(2, 1)], num_trials=0, num_layers=3)
        with pytest.raises(ScheduleError):
            plan.validate()


class TestPlanWalk:
    def test_steps_carry_layer_history_and_counts(self):
        event = ErrorEvent(0, 0, "x")
        walk = PlanWalk(
            [
                Advance(0, 1), Snapshot(0), Inject(event), Advance(1, 3),
                Finish((0,)), Restore(0), Advance(1, 3), Finish((1,)),
            ],
            num_layers=3,
        )
        steps = list(walk)
        assert [s.layer for s in steps] == [0, 1, 1, 1, 3, 3, 1, 3]
        assert steps[4].history == (event,)
        assert steps[5].entry == SlotEntry(1, (), 1)
        assert steps[7].history == ()
        assert [s.live for s in steps] == [1, 2, 2, 2, 2, 1, 1, 1]
        assert not any(s.fault for s in steps)
        assert (walk.peak_live, walk.peak_stored, walk.slots) == (2, 1, {})

    def test_faults_are_reported_and_recovered(self):
        walk = PlanWalk(
            [
                Advance(0, 2), Advance(1, 3), Snapshot(0), Snapshot(0),
                Restore(5), Inject(ErrorEvent(0, 0, "x")), Finish((0,)),
                Advance(3, 5), Finish((1,)), "junk",
            ],
            num_layers=3,
        )
        steps = list(walk)
        assert [s.fault for s in steps] == [
            "", "advance-gap", "", "slot-occupied", "slot-empty",
            "inject-layer", "", "advance-range", "finish-early", "unknown",
        ]
        # Recovery: the gap still moves the layer, the bad inject still
        # joins the history, the reused and the empty slot change nothing.
        assert steps[2].layer == 3
        assert steps[3].entry == SlotEntry(3, (), 2)
        assert steps[6].history == (ErrorEvent(0, 0, "x"),)
        assert walk.slots == {0: SlotEntry(3, (), 2)}
        with pytest.raises(ScheduleError, match="advance-gap"):
            raise steps[1].error()

class TestPlanProperties:
    @given(trials_strategy(max_trials=25))
    @settings(max_examples=100, deadline=None)
    def test_random_trials_produce_valid_plans(self, trials):
        circ = QuantumCircuit(5)
        for _ in range(7):
            for q in range(5):
                circ.h(q)
        layered = layerize(circ)
        if not trials:
            return
        plan = build_plan(layered, trials)
        plan.validate()
        # Ops from the closed form match a counting execution.
        backend = CountingBackend(layered)
        outcome = run_optimized(layered, trials, backend, plan=plan)
        assert outcome.ops_applied == plan.planned_operations(layered)

    @given(trials_strategy(max_trials=25))
    @settings(max_examples=100, deadline=None)
    def test_optimized_never_exceeds_baseline(self, trials):
        from repro.core import baseline_operation_count

        circ = QuantumCircuit(5)
        for _ in range(7):
            for q in range(5):
                circ.h(q)
        layered = layerize(circ)
        if not trials:
            return
        plan = build_plan(layered, trials)
        assert plan.planned_operations(layered) <= baseline_operation_count(
            layered, trials
        )
