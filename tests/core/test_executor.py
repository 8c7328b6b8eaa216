"""Tests for the optimized and baseline executors.

The central correctness claim of the paper — the optimization is
"mathematically equivalent to the original simulation" — is established
here: every trial's final statevector from the optimized executor must
equal the baseline's, for hand-built and randomly sampled trial sets.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.circuits import layerize
from repro.core import (
    ErrorEvent,
    baseline_operation_count,
    build_plan,
    make_trial,
    run_baseline,
    run_optimized,
)
from repro.noise import NoiseModel, sample_trials
from repro.sim import CountingBackend, StatevectorBackend
from repro.testing import assert_states_close, random_circuit, random_trials
from tests.core.test_reorder import trials_strategy


def collect_states(layered, trials, runner):
    backend = StatevectorBackend(layered)
    states = [None] * len(trials)

    def on_finish(payload, indices):
        for index in indices:
            states[index] = payload.copy()

    outcome = runner(layered, trials, backend, on_finish)
    return states, outcome


class TestEquivalence:
    def test_hand_built_trials(self, ghz3_circuit):
        layered = layerize(ghz3_circuit)
        trials = [
            make_trial([]),
            make_trial([ErrorEvent(0, 0, "x")]),
            make_trial([ErrorEvent(0, 0, "x"), ErrorEvent(1, 1, "z")]),
            make_trial([ErrorEvent(2, 2, "y")]),
            make_trial([ErrorEvent(0, 0, "x")]),  # duplicate
        ]
        optimized, opt_outcome = collect_states(layered, trials, run_optimized)
        baseline, base_outcome = collect_states(layered, trials, run_baseline)
        for opt_state, base_state in zip(optimized, baseline):
            assert_states_close(opt_state, base_state)
        assert opt_outcome.ops_applied < base_outcome.ops_applied

    def test_sampled_trials_on_random_circuit(self, rng):
        circuit = random_circuit(3, 20, rng)
        layered = layerize(circuit)
        model = NoiseModel.uniform(0.05, two=0.2, measurement=0.0)
        trials = sample_trials(layered, model, 100, rng)
        optimized, _ = collect_states(layered, trials, run_optimized)
        baseline, _ = collect_states(layered, trials, run_baseline)
        for opt_state, base_state in zip(optimized, baseline):
            assert_states_close(opt_state, base_state)

    @given(trials_strategy(max_trials=15))
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, trials):
        if not trials:
            return
        rng = np.random.default_rng(0)
        circuit = random_circuit(5, 25, rng)
        layered = layerize(circuit)
        optimized, _ = collect_states(layered, trials, run_optimized)
        baseline, _ = collect_states(layered, trials, run_baseline)
        for opt_state, base_state in zip(optimized, baseline):
            assert_states_close(opt_state, base_state)


class TestOperationAccounting:
    def test_counting_matches_statevector_ops(self, ghz3_circuit, rng):
        layered = layerize(ghz3_circuit)
        trials = random_trials(layered, 50, rng)
        counting = CountingBackend(layered)
        real = StatevectorBackend(layered)
        count_outcome = run_optimized(layered, trials, counting)
        real_outcome = run_optimized(layered, trials, real)
        assert count_outcome.ops_applied == real_outcome.ops_applied
        assert count_outcome.peak_msv == real_outcome.peak_msv

    def test_baseline_closed_form_matches_run(self, ghz3_circuit, rng):
        layered = layerize(ghz3_circuit)
        trials = random_trials(layered, 60, rng)
        backend = CountingBackend(layered)
        outcome = run_baseline(layered, trials, backend)
        assert outcome.ops_applied == baseline_operation_count(layered, trials)

    def test_baseline_peak_msv_is_one(self, ghz3_circuit, rng):
        layered = layerize(ghz3_circuit)
        trials = random_trials(layered, 20, rng)
        backend = CountingBackend(layered)
        outcome = run_baseline(layered, trials, backend)
        assert outcome.peak_msv == 1
        assert outcome.peak_stored == 0

    def test_duplicate_heavy_sets_collapse(self, ghz3_circuit):
        layered = layerize(ghz3_circuit)
        trials = [make_trial([])] * 1000
        backend = CountingBackend(layered)
        outcome = run_optimized(layered, trials, backend)
        # All 1000 trials share the single error-free execution.
        assert outcome.ops_applied == layered.num_gates
        assert outcome.finish_calls == 1

    def test_prebuilt_plan_respected(self, ghz3_circuit, rng):
        layered = layerize(ghz3_circuit)
        trials = random_trials(layered, 10, rng)
        plan = build_plan(layered, trials)
        backend = CountingBackend(layered)
        outcome = run_optimized(layered, trials, backend, plan=plan)
        assert outcome.ops_applied == plan.planned_operations(layered)

    def test_plan_trial_count_mismatch_rejected(self, ghz3_circuit, rng):
        from repro.core import ScheduleError

        layered = layerize(ghz3_circuit)
        trials = random_trials(layered, 10, rng)
        plan = build_plan(layered, trials)
        with pytest.raises(ScheduleError):
            run_optimized(layered, trials[:5], CountingBackend(layered), plan=plan)


class TestExplicitSlotContract:
    """The executor stores snapshots under the plan's slot ids, so cache
    ids and plan ids can never drift apart."""

    def test_non_sequential_plan_slots_execute(self, ghz3_circuit):
        from repro.core.schedule import (
            Advance,
            ExecutionPlan,
            Finish,
            Inject,
            Restore,
            Snapshot,
        )

        layered = layerize(ghz3_circuit)
        event = ErrorEvent(0, 0, "x")
        trials = [make_trial([event]), make_trial([])]
        # Hand-written plan using a non-zero slot id the auto-assigner
        # would never pick first.
        plan = ExecutionPlan(
            [
                Advance(0, 1),
                Snapshot(9),
                Inject(event),
                Advance(1, layered.num_layers),
                Finish((0,)),
                Restore(9),
                Advance(1, layered.num_layers),
                Finish((1,)),
            ],
            num_trials=2,
            num_layers=layered.num_layers,
        )
        plan.validate(trials=trials, layered=layered)
        outcome = run_optimized(
            layered, trials, CountingBackend(layered), plan=plan, check=True
        )
        assert outcome.num_trials == 2
        assert outcome.cache_stats.snapshots_taken == 1

    def test_occupied_slot_rejected_at_runtime(self, ghz3_circuit):
        from repro.core import ScheduleError
        from repro.core.schedule import (
            Advance,
            ExecutionPlan,
            Finish,
            Inject,
            Restore,
            Snapshot,
        )

        layered = layerize(ghz3_circuit)
        e0, e1 = ErrorEvent(0, 0, "x"), ErrorEvent(0, 1, "y")
        trials = [make_trial([e0]), make_trial([e1]), make_trial([])]
        plan = ExecutionPlan(
            [
                Advance(0, 1),
                Snapshot(0),
                Inject(e0),
                Advance(1, layered.num_layers),
                Finish((0,)),
                Restore(0),
                Snapshot(0),  # slot 0 was just freed by the Restore
                Inject(e1),
                Advance(1, layered.num_layers),
                Finish((1,)),
                Restore(0),
                Advance(1, layered.num_layers),
                Finish((2,)),
            ],
            num_trials=3,
            num_layers=layered.num_layers,
        )
        # Snapshot(0) after Restore(0) re-opens a *freed* slot: both the
        # sanitizer and the runtime accept it.
        plan.validate(trials=trials, layered=layered)
        run_optimized(
            layered, trials, CountingBackend(layered), plan=plan, check=True
        )

        # A Snapshot into a slot that is still live must fail fast.
        bad = ExecutionPlan(
            [Advance(0, 1), Snapshot(0), Snapshot(0)],
            num_trials=0,
            num_layers=layered.num_layers,
        )
        with pytest.raises(ScheduleError, match="already occupied"):
            run_optimized(layered, [], CountingBackend(layered), plan=bad)

    def test_check_true_fails_before_backend_runs(self, ghz3_circuit, rng):
        from repro.core import ScheduleError
        from repro.core.schedule import ExecutionPlan, Restore

        layered = layerize(ghz3_circuit)
        bad = ExecutionPlan([Restore(4)], num_trials=0, num_layers=3)
        backend = CountingBackend(layered)
        with pytest.raises(ScheduleError, match="P004"):
            run_optimized(layered, [], backend, plan=bad, check=True)
        # The sanitizer rejected the plan before any layer was applied.
        assert backend.ops_applied == 0


class TestCacheBehaviour:
    def test_no_leaked_states(self, ghz3_circuit, rng):
        layered = layerize(ghz3_circuit)
        trials = random_trials(layered, 40, rng)
        backend = StatevectorBackend(layered)
        run_optimized(layered, trials, backend)
        assert backend.live_states == 0

    def test_msv_grows_with_shared_prefix_depth(self, ghz3_circuit):
        layered = layerize(ghz3_circuit)
        shallow = [
            make_trial([ErrorEvent(0, 0, "x")]),
            make_trial([ErrorEvent(1, 0, "x")]),
        ]
        e0, e1 = ErrorEvent(0, 0, "x"), ErrorEvent(1, 1, "y")
        deep = [
            make_trial([e0, e1]),
            make_trial([e0, e1, ErrorEvent(2, 0, "z")]),
            make_trial([e0, ErrorEvent(2, 2, "x")]),
            make_trial([e0]),
        ]
        shallow_outcome = run_optimized(layered, shallow, CountingBackend(layered))
        deep_outcome = run_optimized(layered, deep, CountingBackend(layered))
        assert deep_outcome.peak_msv > shallow_outcome.peak_msv

    def test_finish_callback_counts(self, ghz3_circuit):
        layered = layerize(ghz3_circuit)
        trials = [make_trial([]), make_trial([]), make_trial([ErrorEvent(0, 0, "x")])]
        calls = []
        backend = CountingBackend(layered)
        run_optimized(
            layered, trials, backend, on_finish=lambda p, idx: calls.append(idx)
        )
        assert sorted(i for idx in calls for i in idx) == [0, 1, 2]
        assert len(calls) == 2  # two distinct final states


class TestOutcomeObject:
    def test_repr_and_props(self, ghz3_circuit, rng):
        layered = layerize(ghz3_circuit)
        trials = random_trials(layered, 5, rng)
        outcome = run_optimized(layered, trials, CountingBackend(layered))
        assert "ExecutionOutcome" in repr(outcome)
        assert outcome.num_trials == 5
        assert outcome.peak_msv >= 1
        assert outcome.peak_stored >= 0


class TestCopyEliminationPeepholes:
    """One ownership rule: a Snapshot copies, a Finish lends.

    Whatever instruction follows, a ``Snapshot`` stores an independent
    copy of the working state and a ``Finish`` lends the working state
    itself to ``on_finish``.  The cache accounting mirrors the plan's
    demand, so the static peak-MSV cross-check stays exact.
    """

    def _moved_plan(self, layered):
        from repro.core.schedule import (
            Advance,
            ExecutionPlan,
            Finish,
            Restore,
            Snapshot,
        )

        final = layered.num_layers
        instructions = [
            Advance(0, final),
            Snapshot(0),  # next is Restore: copies all the same
            Restore(0),
            Finish((0, 1)),
        ]
        return ExecutionPlan(instructions, num_trials=2, num_layers=final)

    def _copied_plan(self, layered):
        from repro.core.schedule import (
            Advance,
            ExecutionPlan,
            Finish,
            Restore,
            Snapshot,
        )

        final = layered.num_layers
        instructions = [
            Advance(0, final),
            Snapshot(0),  # next is Finish, which lends the working state
            Finish((0,)),
            Restore(0),
            Finish((1,)),
        ]
        return ExecutionPlan(instructions, num_trials=2, num_layers=final)

    def test_snapshot_move_keeps_results_and_accounting(self, ghz3_circuit):
        from repro.obs import InMemoryRecorder

        layered = layerize(ghz3_circuit)
        trials = [make_trial([]), make_trial([])]
        recorder = InMemoryRecorder()
        states = []
        backend = StatevectorBackend(layered)
        outcome = run_optimized(
            layered,
            trials,
            backend,
            on_finish=lambda p, idx: states.append(p.copy()),
            plan=self._moved_plan(layered),
            recorder=recorder,
        )
        baseline, _ = collect_states(layered, trials, run_baseline)
        assert_states_close(states[0], baseline[0])
        # the snapshot is a real copy, so the nominal MSV count equals the
        # live buffers
        assert outcome.cache_stats.snapshots_taken == 1
        assert outcome.peak_msv == backend.peak_live_states == 2
        stores = recorder.events_named("cache.store")
        assert [event.args for event in stores] == [
            {"slot": 0, "layer": layered.num_layers}
        ]

    def test_snapshot_copies_when_working_state_lives_on(self, ghz3_circuit):
        from repro.obs import InMemoryRecorder

        layered = layerize(ghz3_circuit)
        trials = [make_trial([]), make_trial([])]
        recorder = InMemoryRecorder()
        states = []
        backend = StatevectorBackend(layered)
        run_optimized(
            layered,
            trials,
            backend,
            on_finish=lambda p, idx: states.append(p.copy()),
            plan=self._copied_plan(layered),
            recorder=recorder,
        )
        assert len(recorder.events_named("cache.store")) == 1
        # the copy is real: finishing trial 0 must not corrupt trial 1
        assert_states_close(states[0], states[1])

    def test_planner_plans_borrow_every_finish_payload(self, rng):
        from repro.obs import InMemoryRecorder

        circuit = random_circuit(3, 15, rng)
        layered = layerize(circuit)
        model = NoiseModel.uniform(0.05, two=0.2, measurement=0.0)
        trials = sample_trials(layered, model, 64, rng)
        recorder = InMemoryRecorder()
        outcome = run_optimized(
            layered,
            trials,
            StatevectorBackend(layered),
            on_finish=lambda p, idx: None,
            recorder=recorder,
        )
        # every Finish lends the working state, so no event marks one
        assert "finish.moved" not in recorder.counters
        finishes = recorder.events_named("finish")
        assert [set(event.args) for event in finishes] == [
            {"trials"}
        ] * outcome.finish_calls

    def test_moved_and_copied_plans_agree(self, ghz3_circuit):
        layered = layerize(ghz3_circuit)
        trials = [make_trial([]), make_trial([])]
        moved_states, copied_states = [], []
        run_optimized(
            layered,
            trials,
            StatevectorBackend(layered),
            on_finish=lambda p, idx: moved_states.append(p.copy()),
            plan=self._moved_plan(layered),
        )
        run_optimized(
            layered,
            trials,
            StatevectorBackend(layered),
            on_finish=lambda p, idx: copied_states.append(p.copy()),
            plan=self._copied_plan(layered),
        )
        for moved, copied in zip(moved_states, copied_states):
            assert_states_close(moved, copied)


class TestBufferOwnership:
    """Where state copies happen: only a Snapshot copies, and only when
    the budget has room for the copy; every Finish lends."""

    @pytest.fixture
    def copies(self, monkeypatch):
        from repro.sim.statevector import Statevector

        count = [0]
        copy = Statevector.copy

        def counted(self):
            count[0] += 1
            return copy(self)

        monkeypatch.setattr(Statevector, "copy", counted)
        return count

    @pytest.fixture
    def qft5(self):
        from repro.bench import build_compiled_benchmark
        from repro.noise import ibm_yorktown

        layered = layerize(build_compiled_benchmark("qft5"))
        trials = sample_trials(
            layered, ibm_yorktown(), 256, np.random.default_rng(7)
        )
        return layered, trials

    def test_dfs_copies_once_per_snapshot(self, copies, qft5):
        layered, trials = qft5
        outcome = run_optimized(
            layered, trials, StatevectorBackend(layered), lambda p, i: None
        )
        assert copies[0] == outcome.cache_stats.snapshots_taken > 0

    def test_one_state_budget_never_copies(self, copies, qft5):
        from repro.core.cache import CacheBudget

        layered, trials = qft5
        outcome = run_optimized(
            layered, trials, StatevectorBackend(layered), lambda p, i: None,
            cache_budget=CacheBudget(16 << layered.num_qubits),
        )
        assert outcome.cache_stats.spills == outcome.cache_stats.snapshots_taken
        assert copies[0] == 0

    def test_baseline_never_copies(self, copies, qft5):
        layered, trials = qft5
        run_baseline(
            layered, trials, StatevectorBackend(layered), lambda p, i: None
        )
        assert copies[0] == 0
