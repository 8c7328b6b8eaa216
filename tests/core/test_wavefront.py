"""Trial-batched wavefront execution: bit-exactness and scheduling.

The tentpole contract: :func:`repro.core.wavefront.run_wavefront` is a
pure regrouping of the serial optimized executor — the payload stream
(trial groups, serial order, amplitudes) is **bit-identical**
(``array_equal``, not ``allclose``) to serial DFS at every batch width
and worker count, with equal operation counts, because batch-last
columns see exactly the serial arithmetic.
"""

import numpy as np
import pytest

from repro.bench.suite import resolve_benchmark
from repro.circuits.layers import layerize
from repro.core.events import ErrorEvent, make_trial
from repro.core.executor import run_optimized
from repro.core.parallel import run_parallel
from repro.core.runner import NoisySimulator
from repro.core.schedule import build_plan
from repro.core.wavefront import plan_wavefronts, run_wavefront
from repro.noise.sampling import sample_trials
from repro.obs.recorder import InMemoryRecorder
from repro.obs.summary import verify_trace
from repro.sim.compiled import CompiledStatevectorBackend
from repro.testing import random_circuit, random_trials

BATCH_WIDTHS = (1, 2, 7, 64)


def collect(runner, layered, trials, backend, **kwargs):
    """Run and capture the payload stream: [(trial_indices, vector), ...]."""
    out = []

    def on_finish(payload, indices):
        out.append((tuple(indices), payload.vector.copy()))

    outcome = runner(layered, trials, backend, on_finish=on_finish, **kwargs)
    return out, outcome


def assert_streams_bit_identical(serial, batched, context=""):
    assert len(serial) == len(batched), context
    for (s_idx, s_vec), (b_idx, b_vec) in zip(serial, batched):
        assert s_idx == b_idx, (context, s_idx, b_idx)
        assert np.array_equal(s_vec, b_vec), (context, s_idx)


@pytest.fixture(scope="module")
def random_case():
    rng = np.random.default_rng(7)
    circuit = random_circuit(6, 40, rng)
    layered = layerize(circuit)
    trials = random_trials(layered, 32, rng, max_errors=3)
    plan = build_plan(layered, trials)
    serial, outcome = collect(
        run_optimized, layered, trials, CompiledStatevectorBackend(layered),
        plan=plan,
    )
    return layered, trials, plan, serial, outcome


class TestBitExactness:
    @pytest.mark.parametrize("batch", BATCH_WIDTHS)
    def test_random_circuit_equals_serial_dfs(self, random_case, batch):
        layered, trials, plan, serial, s_out = random_case
        batched, w_out = collect(
            run_wavefront, layered, trials,
            CompiledStatevectorBackend(layered),
            plan=plan, batch_size=batch,
        )
        assert_streams_bit_identical(serial, batched, f"batch={batch}")
        assert w_out.ops_applied == s_out.ops_applied
        assert w_out.finish_calls == s_out.finish_calls

    @pytest.mark.parametrize("batch", BATCH_WIDTHS)
    def test_static_peaks_match_runtime(self, random_case, batch):
        layered, trials, plan, _serial, _s_out = random_case
        wavefront = plan_wavefronts(plan, batch)
        _, outcome = collect(
            run_wavefront, layered, trials,
            CompiledStatevectorBackend(layered),
            plan=plan, batch_size=batch,
        )
        assert wavefront.peak_rows == outcome.peak_msv
        assert wavefront.peak_stored_rows == outcome.peak_stored

    def test_more_random_circuits(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            circuit = random_circuit(5, 30, rng)
            layered = layerize(circuit)
            trials = random_trials(layered, 16, rng, max_errors=2)
            plan = build_plan(layered, trials)
            serial, s_out = collect(
                run_optimized, layered, trials,
                CompiledStatevectorBackend(layered), plan=plan,
            )
            for batch in (2, 64):
                batched, w_out = collect(
                    run_wavefront, layered, trials,
                    CompiledStatevectorBackend(layered),
                    plan=plan, batch_size=batch,
                )
                assert_streams_bit_identical(serial, batched)
                assert w_out.ops_applied == s_out.ops_applied

    def test_ops_invariant_equals_planned(self, random_case):
        layered, trials, plan, _serial, s_out = random_case
        for batch in (1, 7):
            wavefront = plan_wavefronts(plan, batch)
            assert (
                wavefront.planned_operations(layered)
                == plan.planned_operations(layered)
                == s_out.ops_applied
            )


class TestLargeBenchmarks:
    """The committed-benchmark property: wavefront == DFS on qft12/bv14
    for every tested batch width and worker count (reduced trial counts
    keep the suite fast; widths and divergence structure are intact)."""

    @pytest.fixture(scope="class", params=("qft12", "bv14"))
    def case(self, request):
        circuit, model = resolve_benchmark(request.param)
        layered = layerize(circuit)
        trials = sample_trials(
            layered, model, 48, np.random.default_rng(2020)
        )
        plan = build_plan(layered, trials)
        serial, outcome = collect(
            run_optimized, layered, trials,
            CompiledStatevectorBackend(layered), plan=plan,
        )
        return layered, trials, plan, serial, outcome

    @pytest.mark.parametrize("batch", BATCH_WIDTHS)
    def test_serial_wavefront(self, case, batch):
        layered, trials, plan, serial, s_out = case
        batched, w_out = collect(
            run_wavefront, layered, trials,
            CompiledStatevectorBackend(layered),
            plan=plan, batch_size=batch,
        )
        assert_streams_bit_identical(serial, batched, f"batch={batch}")
        assert w_out.ops_applied == s_out.ops_applied

    @pytest.mark.parametrize("workers", (1, 2))
    def test_parallel_wavefront(self, case, workers):
        layered, trials, plan, serial, s_out = case
        for batch in (2, 64):
            batched, w_out = collect(
                run_parallel, layered, trials,
                lambda: CompiledStatevectorBackend(layered),
                workers=workers, batch_size=batch,
            )
            assert_streams_bit_identical(
                serial, batched, f"workers={workers} batch={batch}"
            )
            assert w_out.ops_applied == s_out.ops_applied


class TestDivergence:
    """Unit cases where lanes diverge, finish or degrade mid-batch."""

    def _layered(self, rng=None, num_qubits=4, num_gates=24):
        rng = rng or np.random.default_rng(5)
        return layerize(random_circuit(num_qubits, num_gates, rng))

    def test_fork_at_birth_layer(self):
        # Half the batch injects at layer 0: the root lane forks before
        # advancing a single layer (zero-length leading station).
        layered = self._layered()
        trials = [
            make_trial(()),
            make_trial((ErrorEvent(0, 0, "x"),)),
            make_trial((ErrorEvent(0, 1, "z"),)),
            make_trial((ErrorEvent(0, 0, "x"), ErrorEvent(2, 1, "y"))),
        ]
        plan = build_plan(layered, trials)
        serial, s_out = collect(
            run_optimized, layered, trials,
            CompiledStatevectorBackend(layered), plan=plan,
        )
        for batch in (1, 2, 4):
            batched, w_out = collect(
                run_wavefront, layered, trials,
                CompiledStatevectorBackend(layered),
                plan=plan, batch_size=batch,
            )
            assert_streams_bit_identical(serial, batched, f"batch={batch}")
            assert w_out.ops_applied == s_out.ops_applied

    def test_finish_mid_batch(self):
        # Lanes whose last error sits at different depths finish while
        # sibling columns still have pending segments; the executor must
        # deliver finishes in serial rank order regardless.
        layered = self._layered(num_gates=30)
        last = layered.num_layers - 1
        trials = [
            make_trial(()),
            make_trial((ErrorEvent(1, 0, "x"),)),
            make_trial((ErrorEvent(last, 1, "z"),)),
            make_trial((ErrorEvent(1, 0, "x"), ErrorEvent(last, 2, "y"))),
            make_trial((ErrorEvent(2, 3, "y"),)),
        ]
        plan = build_plan(layered, trials)
        serial, _ = collect(
            run_optimized, layered, trials,
            CompiledStatevectorBackend(layered), plan=plan,
        )
        for batch in (2, 3, 8):
            batched, _ = collect(
                run_wavefront, layered, trials,
                CompiledStatevectorBackend(layered),
                plan=plan, batch_size=batch,
            )
            assert_streams_bit_identical(serial, batched, f"batch={batch}")


class TestTraceAndChecks:
    def test_verify_trace_clean(self, random_case):
        layered, trials, plan, _serial, _s_out = random_case
        recorder = InMemoryRecorder()
        _, outcome = collect(
            run_wavefront, layered, trials,
            CompiledStatevectorBackend(layered),
            plan=plan, batch_size=8, recorder=recorder,
        )
        assert not verify_trace(recorder, outcome)

    def test_check_flag_lints_the_wavefront(self, random_case):
        layered, trials, plan, serial, _s_out = random_case
        batched, _ = collect(
            run_wavefront, layered, trials,
            CompiledStatevectorBackend(layered),
            plan=plan, batch_size=8, check=True,
        )
        assert_streams_bit_identical(serial, batched)

    def test_certificate_p020_parity(self, random_case):
        from repro.lint import build_certificate, lint_certificate_trace

        layered, trials, _plan, _serial, _s_out = random_case
        certificate = build_certificate(layered, list(trials))
        for batch in (1, 8):
            recorder = InMemoryRecorder()
            collect(
                run_wavefront, layered, trials,
                CompiledStatevectorBackend(layered),
                batch_size=batch, recorder=recorder,
            )
            result = lint_certificate_trace(certificate, recorder)
            assert result.ok, [str(d) for d in result.errors]


class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def simulator(self):
        circuit, model = resolve_benchmark("qft5")
        return NoisySimulator(circuit, model, seed=9)

    def test_counts_bit_identical(self):
        # Measurement sampling consumes the simulator RNG, so each run
        # gets a fresh simulator with the same seed: identical trials,
        # identical measurement draws — counts must match exactly.
        circuit, model = resolve_benchmark("qft5")

        def run(batch):
            sim = NoisySimulator(circuit, model, seed=9)
            return sim.run(num_trials=64, mode="optimized", batch_size=batch)

        baseline = run(0)
        for batch in (1, 8, 64):
            result = run(batch)
            assert result.counts == baseline.counts
            assert (
                result.metrics.optimized_ops
                == baseline.metrics.optimized_ops
            )

    def test_batch_requires_optimized_mode(self, simulator):
        with pytest.raises(ValueError, match="mode='optimized'"):
            simulator.run(num_trials=4, mode="baseline", batch_size=8)

    def test_batch_requires_compiled_backend(self, simulator):
        with pytest.raises(ValueError, match="statevector"):
            simulator.run(
                num_trials=4, backend="counting", batch_size=8
            )

    def test_batch_rejects_journal(self, simulator, tmp_path):
        with pytest.raises(ValueError, match="journal"):
            simulator.run(
                num_trials=4,
                journal=str(tmp_path / "run.journal"),
                batch_size=8,
            )

    def test_batch_rejects_negative(self, simulator):
        with pytest.raises(ValueError, match=">= 1"):
            simulator.run(num_trials=4, batch_size=-2)
