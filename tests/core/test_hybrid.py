"""Hybrid Clifford/dense execution: bit-exactness, safety, accounting.

The tentpole contract: :func:`repro.core.hybrid.run_hybrid` runs pure
Clifford trie spans as Pauli-frame deltas over shared dense anchor
states and materializes amplitudes only at the first non-Clifford gate
or at Finish — yet the payload stream (trial groups, serial order,
amplitudes) is **bit-identical** (``array_equal``, not ``allclose``) to
the serial optimized executor, with equal nominal operation counts and
MSV peaks, in-process and at every worker count.
"""

import numpy as np
import pytest

from repro.bench.suite import resolve_benchmark
from repro.circuits import QuantumCircuit, layerize, standard_gate
from repro.core.events import ErrorEvent, make_trial
from repro.core.executor import run_optimized
from repro.core.hybrid import (
    HybridSchedule,
    classify_instructions,
    classify_plan,
    run_hybrid,
)
from repro.core.parallel import fork_available, partition_plan, run_parallel
from repro.core.runner import NoisySimulator
from repro.core.schedule import ScheduleError, build_plan
from repro.lint import lint_partition_trace, lint_trace
from repro.lint.hybrid_rules import lint_hybrid, verify_schedule
from repro.noise import NoiseModel
from repro.noise.sampling import sample_trials
from repro.obs import InMemoryRecorder, verify_trace
from repro.sim.compiled import CompiledStatevectorBackend
from repro.sim.kernels import compile_matrix
from repro.sim.stabilizer import PauliFrame, frame_safe_matrix
from repro.sim.backend import StatevectorBackend
from repro.testing import random_circuit, random_trials

SUITE = ("bv4", "bv5", "qft5", "grover", "bv14")


def collect(runner, layered, trials, backend, **kwargs):
    """Run and capture the payload stream: [(trial_indices, vector), ...]."""
    out = []

    def on_finish(payload, indices):
        out.append((tuple(indices), payload.vector.copy()))

    outcome = runner(layered, trials, backend, on_finish=on_finish, **kwargs)
    return out, outcome


def assert_streams_bit_identical(serial, hybrid, context=""):
    assert len(serial) == len(hybrid), context
    for (s_idx, s_vec), (h_idx, h_vec) in zip(serial, hybrid):
        assert s_idx == h_idx, (context, s_idx, h_idx)
        assert np.array_equal(s_vec, h_vec), (context, s_idx)


def clifford_heavy_circuit(num_qubits=5, edge_gate=None):
    """A Clifford prefix (optionally ending in ``edge_gate``) then a t.

    The ``t`` is the first non-Clifford gate, so every frame alive at
    that layer materializes right after crossing the edge gate — the
    worst case for the arithmetic-transfer argument.
    """
    circ = QuantumCircuit(num_qubits, name="clifford-heavy")
    for q in range(num_qubits):
        circ.gate("h", q)
    for q in range(num_qubits - 1):
        circ.gate("cx", q, q + 1)
    circ.gate("s", 0)
    circ.gate("sdg", 1)
    circ.gate("cz", 1, 2)
    circ.gate("sx", 2)
    if edge_gate is not None:
        name, qubits = edge_gate
        circ.gate(name, *qubits)
    circ.gate("t", 2)
    circ.gate("h", 2)
    circ.gate("cx", 2, 3)
    circ.measure_all()
    return circ


@pytest.fixture(scope="module")
def random_case():
    rng = np.random.default_rng(11)
    circuit = random_circuit(6, 40, rng)
    layered = layerize(circuit)
    trials = random_trials(layered, 32, rng, max_errors=3)
    plan = build_plan(layered, trials)
    serial, outcome = collect(
        run_optimized, layered, trials, CompiledStatevectorBackend(layered),
        plan=plan,
    )
    return layered, trials, plan, serial, outcome


def _suite_case(name, num_trials=256):
    circuit, model = resolve_benchmark(name)
    layered = layerize(circuit)
    trials = sample_trials(
        layered, model, num_trials, np.random.default_rng(2020)
    )
    return layered, trials


@pytest.fixture(scope="module")
def suite_cases():
    """Suite benchmarks with their sampled trial sets.

    ``qft5`` with this exact seed is a regression anchor: its fused
    device-basis kernels expose the FMA re/im-swap hazard that odd-phase
    frames must not cross (one trial of 128 diverged by one ulp before
    the ``_phase_transparent`` guard existed).
    """
    cases = {}
    for name in SUITE:
        layered, trials = _suite_case(name, 128)
        plan = build_plan(layered, trials)
        serial, outcome = collect(
            run_optimized, layered, trials,
            CompiledStatevectorBackend(layered), plan=plan,
        )
        cases[name] = (layered, trials, plan, serial, outcome)
    return cases


def forced_schedule(layered, plan, active):
    """The classified schedule with its verdict forced: active runs the
    hybrid state model even where it saves nothing, inactive delegates
    the run to ``run_optimized``."""
    schedule = classify_plan(layered, plan)
    savings = max(schedule.stats["savings"], 1) if active else 0
    return HybridSchedule(
        schedule.layered, schedule.actions, schedule.path_uses,
        schedule.derive_gates, dict(schedule.stats, savings=savings),
    )


def assert_matches_serial(layered, trials, plan, serial, s_out, active):
    hybrid, h_out = collect(
        run_hybrid, layered, trials, CompiledStatevectorBackend(layered),
        plan=plan, schedule=forced_schedule(layered, plan, active),
    )
    assert h_out.active == active
    assert_streams_bit_identical(serial, hybrid, f"active={active}")
    assert h_out.ops_applied == s_out.ops_applied
    assert h_out.peak_msv == s_out.peak_msv
    assert h_out.peak_stored == s_out.peak_stored


_FORK = pytest.mark.skipif(not fork_available(), reason="needs fork")


class TestBitExactness:
    @pytest.mark.parametrize("active", (True, False), ids=("active", "inactive"))
    def test_random_circuit_matches_serial(self, random_case, active):
        assert_matches_serial(*random_case, active)

    @pytest.mark.parametrize("name", SUITE)
    @pytest.mark.parametrize("active", (True, False), ids=("active", "inactive"))
    def test_suite_benchmarks_match_serial(self, suite_cases, name, active):
        assert_matches_serial(*suite_cases[name], active)

    @pytest.mark.parametrize(
        "workers, inline",
        [
            pytest.param(1, True, id="1"),
            pytest.param(2, True, id="2"),
            pytest.param(1, False, id="fork-1", marks=_FORK),
            pytest.param(2, False, id="fork-2", marks=_FORK),
        ],
    )
    def test_parallel_hybrid_matches_serial(self, suite_cases, workers, inline):
        layered, trials, plan, serial, s_out = suite_cases["qft5"]
        out = []

        def on_finish(payload, indices):
            out.append((tuple(indices), payload.vector.copy()))

        p_out = run_parallel(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            on_finish=on_finish, workers=workers, inline=inline, hybrid=True,
        )
        assert p_out.used_fork is not inline
        assert_streams_bit_identical(serial, out, f"workers={workers}")
        assert p_out.ops_applied == s_out.ops_applied

    def test_check_mode_verifies_and_matches(self, suite_cases):
        layered, trials, plan, serial, _ = suite_cases["bv5"]
        hybrid, h_out = collect(
            run_hybrid, layered, trials, CompiledStatevectorBackend(layered),
            plan=plan, check=True,
        )
        assert_streams_bit_identical(serial, hybrid, "check=True")


class TestTraces:
    """A traced hybrid run replays its own outcome and its plan's schedule."""

    @pytest.mark.parametrize("name", ("bv4", "qft5", "bv14"))
    def test_traced_run_replays_and_passes_p017(self, name):
        layered, trials = _suite_case(name)
        plan = build_plan(layered, trials)
        assert classify_plan(layered, plan).active
        recorder = InMemoryRecorder()
        outcome = run_hybrid(
            layered, trials, CompiledStatevectorBackend(layered),
            plan=plan, recorder=recorder,
        )
        assert outcome.active
        assert verify_trace(recorder, outcome) == []
        result = lint_trace(plan, recorder)
        assert result.ok, [str(d) for d in result.errors]

    @pytest.mark.parametrize("name", ("bv4", "qft5", "bv14"))
    @pytest.mark.parametrize("depth", (1, 2))
    def test_traced_parallel_hybrid_passes_p017(self, name, depth):
        """Depth 2 gives bv4 and qft5 a prefix with symbolic work, so
        the parent track records the hybrid model there."""
        layered, trials = _suite_case(name)
        recorder = InMemoryRecorder()
        run_parallel(
            layered, trials, lambda: CompiledStatevectorBackend(layered),
            workers=2, depth=depth, inline=True, hybrid=True,
            recorder=recorder,
        )
        partition = partition_plan(layered, trials, depth=depth)
        result = lint_partition_trace(partition, recorder)
        assert result.ok, [str(d) for d in result.errors]
        active = classify_instructions(layered, partition.prefix).active
        assert (recorder.counter_total("hybrid.clifford_ops") > 0) == active


class TestEdgeGatesBeforeMaterialization:
    """Stabilizer edge gates crossed by a frame right before a t gate."""

    EDGE_GATES = (
        ("sdg", (2,)),
        ("sx", (2,)),
        ("cy", (1, 2)),
        ("swap", (1, 2)),
    )

    @pytest.mark.parametrize("edge", EDGE_GATES, ids=lambda e: e[0])
    @pytest.mark.parametrize("pauli", ("x", "y", "z"))
    def test_edge_gate_crossing_is_bit_exact(self, edge, pauli):
        circuit = clifford_heavy_circuit(edge_gate=edge)
        layered = layerize(circuit)
        # One error per qubit in the Clifford prefix: the frames must
        # cross the edge gate, then materialize at the t layer.
        trials = [make_trial([])]
        for qubit in range(layered.num_qubits):
            trials.append(make_trial([ErrorEvent(1, qubit, pauli)]))
            trials.append(make_trial([ErrorEvent(2, qubit, pauli)]))
        plan = build_plan(layered, trials)
        backend = CompiledStatevectorBackend(layered)
        serial, s_out = collect(
            run_optimized, layered, trials, backend, plan=plan
        )
        hybrid, h_out = collect(
            run_hybrid, layered, trials, CompiledStatevectorBackend(layered),
            plan=plan,
        )
        assert_streams_bit_identical(serial, hybrid, f"{edge[0]}/{pauli}")
        assert h_out.ops_applied == s_out.ops_applied
        schedule = classify_plan(layered, plan)
        assert schedule.stats["symbolic_gates"] > 0

    def test_schedule_is_active_on_clifford_heavy(self):
        circuit = clifford_heavy_circuit()
        layered = layerize(circuit)
        trials = [make_trial([])]
        for qubit in range(layered.num_qubits):
            for pauli in ("x", "z"):
                trials.append(make_trial([ErrorEvent(1, qubit, pauli)]))
        plan = build_plan(layered, trials)
        schedule = classify_plan(layered, plan)
        assert schedule.active
        _, h_out = collect(
            run_hybrid, layered, trials, CompiledStatevectorBackend(layered),
            plan=plan,
        )
        assert h_out.active


class TestFrameConjugationProperty:
    """Frame conjugation vs dense conjugation, down to the bit level."""

    CLIFFORD_1Q = ("h", "s", "sdg", "x", "y", "z", "sx")
    CLIFFORD_2Q = ("cx", "cz", "cy", "swap")

    @staticmethod
    def _random_state(num_qubits, rng):
        shape = (2,) * num_qubits
        vec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return np.ascontiguousarray(vec / np.linalg.norm(vec))

    @staticmethod
    def _random_frame(num_qubits, rng):
        frame = PauliFrame(num_qubits)
        for qubit in range(num_qubits):
            frame.inject(str(rng.choice(["x", "y", "z"])), qubit)
        return frame

    @pytest.mark.parametrize("name", CLIFFORD_1Q + CLIFFORD_2Q)
    def test_crossing_commutes_with_kernel_bitwise(self, name):
        """kernel(P . x) == P' . kernel(x), bitwise, whenever it crosses."""
        rng = np.random.default_rng(3)
        gate = standard_gate(name)
        k = gate.num_qubits
        num_qubits = 3
        qubits = tuple(range(k))
        kernel = compile_matrix(
            np.asarray(gate.matrix, dtype=np.complex128), qubits, num_qubits
        )
        crossed = 0
        for x_bits in range(4 ** num_qubits):
            frame = PauliFrame(num_qubits)
            for qubit in range(num_qubits):
                which = (x_bits >> (2 * qubit)) & 3
                for pauli in ("", "x", "z", "y")[which : which + 1]:
                    if pauli:
                        frame.inject(pauli, qubit)
            state = self._random_state(num_qubits, rng)
            after = frame.copy()
            if not after.try_conjugate_matrix(
                np.asarray(gate.matrix), qubits
            ):
                continue
            crossed += 1
            framed = frame.apply_to_tensor(state)
            lhs, _ = kernel.apply(framed.copy(), np.empty_like(framed))
            out, _ = kernel.apply(state.copy(), np.empty_like(state))
            rhs = after.apply_to_tensor(out)
            assert np.array_equal(lhs, rhs), (name, repr(frame))
        assert crossed > 0

    def test_random_clifford_conjugation_matches_dense(self):
        """Frame algebra equals dense U P U^dagger on random circuits."""
        rng = np.random.default_rng(5)
        num_qubits = 3
        dim = 2 ** num_qubits
        for _ in range(25):
            frame = self._random_frame(num_qubits, rng)
            before = frame.copy()
            unitary = np.eye(dim, dtype=np.complex128)
            for _ in range(8):
                if rng.random() < 0.5:
                    gate = standard_gate(
                        str(rng.choice(self.CLIFFORD_1Q))
                    )
                    qubits = (int(rng.integers(num_qubits)),)
                else:
                    gate = standard_gate(
                        str(rng.choice(self.CLIFFORD_2Q))
                    )
                    a, b = rng.choice(num_qubits, size=2, replace=False)
                    qubits = (int(a), int(b))
                if not frame.try_conjugate_matrix(
                    np.asarray(gate.matrix), qubits
                ):
                    # Odd-phase frames refuse mixed-entry matrices (sx);
                    # the classifier materializes there instead.
                    continue
                kernel = compile_matrix(
                    np.asarray(gate.matrix, dtype=np.complex128),
                    qubits,
                    num_qubits,
                )
                full = np.eye(dim, dtype=np.complex128)
                cols = []
                for col in range(dim):
                    tensor = np.ascontiguousarray(
                        full[:, col].reshape((2,) * num_qubits)
                    )
                    out, _ = kernel.apply(tensor, np.empty_like(tensor))
                    cols.append(out.reshape(-1))
                unitary = np.column_stack(cols) @ unitary
            # Dense conjugation of the *original* frame matrix.
            eye = np.eye(dim, dtype=np.complex128)
            p_before = np.column_stack(
                [
                    before.apply_to_tensor(
                        np.ascontiguousarray(
                            eye[:, col].reshape((2,) * num_qubits)
                        )
                    ).reshape(-1)
                    for col in range(dim)
                ]
            )
            p_after = np.column_stack(
                [
                    frame.apply_to_tensor(
                        np.ascontiguousarray(
                            eye[:, col].reshape((2,) * num_qubits)
                        )
                    ).reshape(-1)
                    for col in range(dim)
                ]
            )
            assert np.allclose(unitary @ p_before, p_after @ unitary)


class TestOddPhaseSafety:
    """Odd-phase frames must not cross mixed-entry (FMA-hazard) kernels."""

    MIXED = np.diag([1.0, np.exp(-0.25j * np.pi)]).astype(np.complex128)

    def test_odd_phase_refused_even_on_disjoint_qubits(self):
        frame = PauliFrame(5)
        frame.inject("y", 4)  # phase i^1
        assert frame.phase % 2 == 1
        before = frame.key()
        assert not frame.try_conjugate_matrix(self.MIXED, (3,))
        assert frame.key() == before

    def test_even_phase_crosses_disjoint_mixed_matrix(self):
        frame = PauliFrame(5)
        frame.inject("x", 4)
        assert frame.try_conjugate_matrix(self.MIXED, (3,))

    def test_odd_phase_crosses_real_and_exact_matrices(self):
        hadamard = np.array([[1, 1], [1, -1]], dtype=np.complex128)
        hadamard = hadamard / np.sqrt(2.0)
        s_matrix = np.diag([1.0, 1.0j]).astype(np.complex128)
        frame = PauliFrame(5)
        frame.inject("y", 4)
        assert frame.try_conjugate_matrix(hadamard, (3,))
        assert frame.try_conjugate_matrix(s_matrix, (3,))

    def test_frame_safe_matrix_requires_phase_transparency(self):
        assert not frame_safe_matrix(self.MIXED)
        s_matrix = np.diag([1.0, 1.0j]).astype(np.complex128)
        assert frame_safe_matrix(s_matrix)


class TestFallbacksAndValidation:
    def test_inactive_schedule_falls_back_to_serial(self):
        # Odd-phase (y) errors straight into generic-angle rotations:
        # every frame materializes at its injection point, so the
        # symbolic side never amortizes an anchor derivation.
        circ = QuantumCircuit(3, name="dense-only")
        for layer in range(3):
            for q in range(3):
                circ.gate(
                    "u3", q, params=(0.4 + 0.1 * q + 0.2 * layer, 0.3, 0.2)
                )
        circ.measure_all()
        layered = layerize(circ)
        trials = [
            make_trial([]),
            make_trial([ErrorEvent(0, 0, "y")]),
            make_trial([ErrorEvent(1, 1, "y")]),
        ]
        plan = build_plan(layered, trials)
        schedule = classify_plan(layered, plan)
        assert not schedule.active
        serial, s_out = collect(
            run_optimized, layered, trials, CompiledStatevectorBackend(layered),
            plan=plan,
        )
        hybrid, h_out = collect(
            run_hybrid, layered, trials, CompiledStatevectorBackend(layered),
            plan=plan,
        )
        assert not h_out.active
        assert_streams_bit_identical(serial, hybrid, "inactive")
        assert h_out.ops_applied == s_out.ops_applied

    def test_requires_compiled_backend(self, random_case):
        layered, trials, plan, _, _ = random_case
        with pytest.raises(ScheduleError, match="compiled"):
            run_hybrid(layered, trials, StatevectorBackend(layered), plan=plan)

    def test_runner_rejects_hybrid_baseline(self):
        circuit = clifford_heavy_circuit()
        sim = NoisySimulator(circuit, NoiseModel.uniform(0.01), seed=7)
        with pytest.raises(ValueError, match="hybrid"):
            sim.run(num_trials=4, mode="baseline", hybrid=True)

    def test_runner_rejects_hybrid_with_journal_or_budget(self):
        circuit = clifford_heavy_circuit()
        sim = NoisySimulator(circuit, NoiseModel.uniform(0.01), seed=7)
        with pytest.raises(ValueError, match="hybrid"):
            # Validation fires before the journal object is touched.
            sim.run(num_trials=4, journal=object(), hybrid=True)
        with pytest.raises(ValueError, match="hybrid"):
            sim.run(num_trials=4, max_cache_bytes=1 << 20, hybrid=True)

    def test_runner_hybrid_counts_match_serial(self):
        circuit = clifford_heavy_circuit()
        sim = NoisySimulator(circuit, NoiseModel.uniform(0.05), seed=11)
        base = sim.run(num_trials=64)
        sim2 = NoisySimulator(circuit, NoiseModel.uniform(0.05), seed=11)
        fast = sim2.run(num_trials=64, hybrid=True)
        assert base.counts == fast.counts
        assert base.metrics.optimized_ops == fast.metrics.optimized_ops
        assert base.metrics.peak_msv == fast.metrics.peak_msv


def _retag(schedule, find, change):
    """Replace the first action ``find`` accepts with ``change(action)``."""
    actions = list(schedule.actions)
    index = next(i for i, action in enumerate(actions) if find(action))
    actions[index] = change(actions[index])
    return actions


def _swap_sym_to_mat(schedule):
    return _retag(
        schedule,
        lambda a: a[0] == "advance-sym",
        lambda a: ("advance-mat", a[1], PauliFrame(5), ()),
    )


def _swap_mat_to_sym(schedule):
    return _retag(
        schedule,
        lambda a: a[0] == "advance-mat",
        lambda a: ("advance-sym", a[1], a[1] + (99,), True),
    )


def _flip_derive(schedule):
    return _retag(
        schedule,
        lambda a: a[0] == "advance-sym",
        lambda a: a[:3] + (not a[3],),
    )


def _extra_mat_event(schedule):
    return _retag(
        schedule,
        lambda a: a[0] == "advance-mat",
        lambda a: a[:3] + (tuple(a[3]) + (ErrorEvent(0, 0, "x"),),),
    )


#: P026 schedule tampers: (actions, path_uses, stats) edits, each with the
#: message fragment the replay must report.
HYBRID_TAMPERS = {
    "action-count": (
        lambda s: (list(s.actions)[:-1], s.path_uses, s.stats),
        "actions for",
    ),
    "derive-flag": (
        lambda s: (_flip_derive(s), s.path_uses, s.stats),
        "derive flag",
    ),
    "path-uses": (
        lambda s: (
            s.actions,
            {p: n + (p == (0,)) for p, n in s.path_uses.items()},
            s.stats,
        ),
        "static use count",
    ),
    "sym-to-mat": (
        lambda s: (_swap_sym_to_mat(s), s.path_uses, s.stats),
        "but action is advance-mat",
    ),
    "mat-to-sym": (
        lambda s: (_swap_mat_to_sym(s), s.path_uses, s.stats),
        "but action is advance-sym",
    ),
    "mat-event-history": (
        lambda s: (_extra_mat_event(s), s.path_uses, s.stats),
        "materialization event history",
    ),
    "planned-ops": (
        lambda s: (
            s.actions,
            s.path_uses,
            dict(s.stats, planned_ops=s.stats["planned_ops"] + 1),
        ),
        "planned ops",
    ),
}


class TestLintP026:
    @pytest.mark.parametrize("tamper", sorted(HYBRID_TAMPERS))
    def test_detects_tampered_schedule(self, suite_cases, tamper):
        layered, trials, plan, _, _ = suite_cases["qft5"]
        schedule = classify_plan(layered, plan)
        make, fragment = HYBRID_TAMPERS[tamper]
        actions, path_uses, stats = make(schedule)
        corrupt = HybridSchedule(
            schedule.layered, tuple(actions), path_uses,
            schedule.derive_gates, stats,
        )
        problems = verify_schedule(layered, plan.instructions, corrupt)
        assert any(fragment in problem for problem in problems), problems
        result = lint_hybrid(layered, plan, schedule=corrupt)
        assert {d.code for d in result.diagnostics} == {"P026"}

    def test_clean_on_suite_benchmark(self, suite_cases):
        layered, trials, plan, _, _ = suite_cases["qft5"]
        result = lint_hybrid(layered, plan)
        assert not result.diagnostics
        assert result.info["active"]

    def test_detects_tampered_finish_frame(self, suite_cases):
        layered, trials, plan, _, _ = suite_cases["qft5"]
        schedule = classify_plan(layered, plan)
        tampered = False
        actions = list(schedule.actions)
        for index, action in enumerate(actions):
            if action[0] == "finish-sym" and not action[2].is_identity:
                frame = action[2].copy()
                frame.inject("x", 0)
                actions[index] = (action[0], action[1], frame)
                tampered = True
                break
        assert tampered
        corrupt = HybridSchedule(
            schedule.layered,
            tuple(actions),
            schedule.path_uses,
            schedule.derive_gates,
            schedule.stats,
        )
        problems = verify_schedule(layered, plan.instructions, corrupt)
        assert problems

    def test_conservation_stats(self, suite_cases):
        layered, trials, plan, _, s_out = suite_cases["qft5"]
        schedule = classify_plan(layered, plan)
        stats = schedule.stats
        assert stats["planned_ops"] == s_out.ops_applied
        assert (
            stats["symbolic_gates"]
            + stats["dense_gates"]
            + stats["symbolic_injects"]
            + stats["dense_injects"]
            == stats["planned_ops"]
        )
        assert stats["peak_anchors"] <= s_out.peak_msv
