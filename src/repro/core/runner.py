"""High-level noisy-simulation driver: the library's main entry point.

:class:`NoisySimulator` ties the full pipeline together::

    from repro import NoisySimulator, ibm_yorktown
    sim = NoisySimulator(circuit, ibm_yorktown(), seed=7)
    result = sim.run(num_trials=1024)          # optimized, real statevector
    result.counts                              # measurement histogram
    result.metrics.computation_saving          # ~0.8 on paper workloads

Pipeline per run: layerize the circuit → statically sample all trials →
build the prefix trie / execution plan (the reordering) → execute on the
chosen backend → sample measurements (with classical readout flips) from
each distinct final state, one CDF per state for all trials that reach it
→ aggregate counts and metrics.

``backend="counting"`` runs the identical schedule without amplitudes and
returns metrics only — this is how the 40-qubit scalability figures are
produced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.compiled import CompiledCircuit

from ..circuits.circuit import QuantumCircuit
from ..circuits.layers import LayeredCircuit, layerize
from ..noise.model import NoiseModel
from ..noise.sampling import sample_trials
from ..sim.backend import SimulationBackend, StatevectorBackend
from ..sim.counting import CountingBackend
from ..sim.measurement import (
    apply_readout_flips,
    clbits_bitstring,
    outcome_clbits,
    sample_outcomes,
)
from ..sim.statevector import Statevector
from .events import Trial
from .executor import run_optimized
from .metrics import RunMetrics, compute_metrics
from .options import BACKENDS, READOUT, execute, validate
from .schedule import ExecutionPlan, build_plan

__all__ = ["SimulationResult", "NoisySimulator"]


class SimulationResult:
    """Everything a run produced: counts, per-trial bits, metrics."""

    def __init__(
        self,
        counts: Dict[str, int],
        metrics: RunMetrics,
        mode: str,
        backend: str,
        trial_clbits: Optional[List[Dict[int, int]]] = None,
        final_states: Optional[List[Optional[Statevector]]] = None,
        journal=None,
        ops_shared: int = 0,
        executor: Optional[str] = None,
    ) -> None:
        #: Aggregated measurement histogram (bitstring -> occurrences).
        self.counts = counts
        #: Computation / memory metrics of the run.
        self.metrics = metrics
        self.mode = mode
        self.backend = backend
        #: Per-trial clbit values (original sampling order), when collected.
        self.trial_clbits = trial_clbits
        #: Per-trial final statevectors, when collected (tests/analysis only).
        self.final_states = final_states
        #: :class:`~repro.core.resilience.JournalSummary` of a journaled run.
        self.journal = journal
        #: Plan operations satisfied by a cross-job shared prefix store
        #: instead of execution (see :mod:`repro.core.shared`).
        self.ops_shared = ops_shared
        #: Name of the executor that ran (``repro.core.options.EXECUTORS``):
        #: the one the options picked, or the default pick's.
        self.executor = executor

    @property
    def num_trials(self) -> int:
        return self.metrics.num_trials

    def probabilities(self) -> Dict[str, float]:
        """Counts normalized to an output distribution."""
        total = sum(self.counts.values())
        if total == 0:
            return {}
        return {bits: count / total for bits, count in self.counts.items()}

    def __repr__(self) -> str:
        return (
            f"SimulationResult(mode={self.mode!r}, executor={self.executor!r}, "
            f"trials={self.num_trials}, "
            f"normalized={self.metrics.normalized_computation:.3f}, "
            f"msv={self.metrics.peak_msv})"
        )


class NoisySimulator:
    """Monte-Carlo noisy simulation with trial-reordering acceleration.

    Parameters
    ----------
    circuit:
        The circuit to simulate; measurements must be terminal.
    noise_model:
        Gate/measurement error model (see :mod:`repro.noise`).
    seed:
        Seeds both trial sampling and measurement sampling; runs with equal
        seeds and parameters are fully reproducible.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        noise_model: NoiseModel,
        seed: Optional[int] = None,
    ) -> None:
        self.circuit = circuit
        self.noise_model = noise_model
        self.layered: LayeredCircuit = layerize(circuit)
        self._rng = np.random.default_rng(seed)
        self._compiled: Optional["CompiledCircuit"] = None

    # -- pipeline stages (public for composition and testing) ---------------

    def sample(self, num_trials: int) -> List[Trial]:
        """Statically generate ``num_trials`` error-injection trials."""
        return sample_trials(self.layered, self.noise_model, num_trials, self._rng)

    def plan(self, trials: Sequence[Trial], check: bool = False) -> ExecutionPlan:
        """Reorder ``trials`` and build the optimized execution plan.

        ``check=True`` additionally proves the plan sound with the static
        sanitizer (:mod:`repro.lint`) before returning it.
        """
        return build_plan(self.layered, trials, check=check)

    def compiled_circuit(self) -> "CompiledCircuit":
        """The lazily built compiled-kernel form, shared across runs."""
        if self._compiled is None:
            from ..sim.compiled import CompiledCircuit

            self._compiled = CompiledCircuit(self.layered)
        return self._compiled

    def make_backend(self, backend: str) -> SimulationBackend:
        if backend == "statevector":
            from ..sim.compiled import CompiledStatevectorBackend

            return CompiledStatevectorBackend(
                self.layered, compiled=self.compiled_circuit()
            )
        if backend == "statevector-interpreted":
            return StatevectorBackend(self.layered)
        if backend == "counting":
            return CountingBackend(self.layered)
        if backend == "stabilizer":
            from ..sim.stabilizer import StabilizerBackend

            return StabilizerBackend(self.layered)
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")

    # -- main entry points -----------------------------------------------------

    def run(
        self,
        num_trials: int = 1024,
        mode: str = "optimized",
        backend: str = "statevector",
        trials: Optional[Sequence[Trial]] = None,
        collect_final_states: bool = False,
        check: bool = False,
        recorder=None,
        journal=None,
        max_cache_bytes: Optional[int] = None,
        hybrid: Optional[bool] = None,
        shared=None,
        stop=None,
        on_trial=None,
    ) -> SimulationResult:
        """Sample (or reuse) trials and execute them.

        Every run executes in this process, on one of four executors:
        journal, hybrid, serial DFS or baseline.  Which executor runs,
        which options it honours and which combinations are rejected is
        declared once, in :mod:`repro.core.options` (tabulated in
        ``docs/architecture.md``, "Execution options").  Every option is
        validated before the simulator draws from its RNG; a rejected
        value or combination raises
        :class:`~repro.core.options.OptionError`.

        Parameters
        ----------
        mode:
            ``"optimized"`` (reordered, prefix reuse) or ``"baseline"``
            (every trial from scratch).  Both produce statistically
            identical results; only cost differs.
        backend:
            ``"statevector"`` for real simulation with measurement counts,
            ``"counting"`` for metrics only (counts will be empty).
        trials:
            Pre-sampled trials (e.g. to run both modes on the same set).
        collect_final_states:
            Keep every trial's final statevector on the result — memory
            heavy; meant for equivalence tests and small analyses.
        check:
            Statically sanitize the optimized plan before execution.
        recorder:
            Optional :class:`~repro.obs.recorder.TraceRecorder` capturing
            execution spans, cache events and the live-MSV timeline; see
            :mod:`repro.obs`.  Falsy recorders cost nothing on the hot
            path.
        journal:
            Path to a crash-safe run journal.  A fresh run records every
            finish payload as it streams, fsynced in groups; re-running
            with the same path after a crash replays the committed
            finishes and recomputes only the unfinished trials — counts
            are bit-identical to an uninterrupted run.  The result's
            ``journal`` attribute carries the
            :class:`~repro.core.resilience.JournalSummary`.
        max_cache_bytes:
            Byte budget for the snapshot cache of the serial DFS
            executor and a journaled run.  When the resident snapshots
            would exceed it, the coldest are spilled to CRC-checked files
            and reloaded on restore — results and ``ops_applied`` stay
            bit-identical; only time/memory trade off.  Rejected beside
            ``hybrid``.
        hybrid:
            The Clifford/Pauli-frame fast path
            (:func:`~repro.core.hybrid.run_hybrid`): pure-Clifford trie
            spans run symbolically as Pauli-frame deltas over shared
            dense anchors, amplitudes materialize only at the first
            non-Clifford gate or at Finish.  Bit-identical payloads and
            nominal accounting.  ``None`` (default) lets the default pick
            decide: a run whose other options leave the executor open
            takes the fast path when the circuit has at least
            ``HYBRID_MIN_QUBITS`` (14) qubits and at least
            ``HYBRID_MIN_FRAME_SAFE`` (0.9) of its gate occurrences are
            frame-safe (:mod:`repro.core.options`), and serial DFS
            otherwise; ``result.executor`` names what ran.  ``True``
            forces the fast path and is rejected beside ``journal``,
            ``max_cache_bytes`` or ``shared``; ``False`` forces serial
            DFS and combines with everything.
        shared:
            Optional :class:`~repro.core.shared.SharedPrefixStore` for
            cross-job prefix deduplication — the service tier passes one
            store to every job on the same circuit family, so prefix
            states computed by one job are adopted (bit-identically) by
            the next instead of recomputed; skipped gates are reported as
            ``result.ops_shared``.
        stop:
            Optional ``threading.Event``; when set mid-run the executor
            raises :class:`~repro.core.executor.RunInterrupted` after the
            finishes already streamed (and, for journaled runs, after the
            journal tail is committed), so a stopped run is resumable.
            :func:`~repro.core.executor.graceful_stop` yields one that
            SIGTERM and SIGINT set.
        on_trial:
            Optional callback ``(trial_index, bits)`` invoked once per
            trial as its measurement is sampled — the service tier's
            incremental result stream.  For a resumed journal run the
            replayed trials are delivered through it too, in their
            original order.
        """
        options = dict(
            mode=mode, backend=backend, check=check, recorder=recorder,
            journal=journal, max_cache_bytes=max_cache_bytes,
            hybrid=hybrid, shared=shared, stop=stop,
        )
        validate(collect_final_states=collect_final_states, on_trial=on_trial, **options)
        trial_list = list(trials) if trials is not None else self.sample(num_trials)

        engine = self.make_backend(backend)
        has_readout = backend in READOUT
        measurements = self.layered.measurements
        num_qubits = self.layered.num_qubits
        num_clbits = self.circuit.num_clbits
        counts: Dict[str, int] = {}
        trial_clbits: List[Optional[Dict[int, int]]] = [None] * len(trial_list)
        final_states: List[Optional[Statevector]] = [None] * len(trial_list)

        by_outcome: Dict[int, Tuple[Dict[int, int], str]] = {}

        def readouts(payload, count: int) -> List[Tuple[Dict[int, int], str]]:
            """``count`` fresh readouts of one finished state, in draw order.

            A statevector payload draws all of them through one CDF, and
            each basis outcome's (read-only) clbit map and bitstring are
            built once per run.  The stabilizer collapses qubit by qubit,
            one trial at a time.
            """
            if isinstance(payload, Statevector):
                outcomes = sample_outcomes(payload, count, self._rng).tolist()
                for outcome in outcomes:
                    if outcome not in by_outcome:
                        clbits = outcome_clbits(outcome, num_qubits, measurements)
                        by_outcome[outcome] = (clbits, clbits_bitstring(clbits, num_clbits))
                return [by_outcome[outcome] for outcome in outcomes]
            drawn = []
            for _ in range(count):
                clbits = engine.sample_clbits(payload, measurements, self._rng)
                drawn.append((clbits, clbits_bitstring(clbits, num_clbits)))
            return drawn

        def on_finish(payload, trial_indices: Tuple[int, ...]) -> None:
            if not has_readout:
                return
            drawn = readouts(payload, len(trial_indices))
            for index, (clbits, bits) in zip(trial_indices, drawn):
                flips = trial_list[index].meas_flips
                if flips:
                    clbits = apply_readout_flips(clbits, flips)
                    bits = clbits_bitstring(clbits, num_clbits)
                else:
                    clbits = dict(clbits)
                trial_clbits[index] = clbits
                counts[bits] = counts.get(bits, 0) + 1
                if collect_final_states:
                    final_states[index] = payload.copy()
                if on_trial is not None:
                    on_trial(index, bits)

        outcome = execute(
            self.layered,
            trial_list,
            lambda: self.make_backend(backend),
            on_finish,
            engine=engine,
            **options,
        )

        if recorder:
            from .hostinfo import cpu_count, peak_rss_kb

            rss = peak_rss_kb()
            recorder.instant(
                "run.host",
                cat="run",
                cpu_count=cpu_count(),
                peak_rss_self_kb=rss["self"],
                peak_rss_children_kb=rss["children"],
            )

        metrics = compute_metrics(self.layered, trial_list, outcome)
        return SimulationResult(
            counts=counts,
            metrics=metrics,
            mode=mode,
            backend=backend,
            trial_clbits=trial_clbits if has_readout else None,
            final_states=final_states if collect_final_states else None,
            journal=outcome.journal,
            ops_shared=outcome.ops_shared,
            executor=outcome.executor,
        )

    def expectation(
        self,
        observable,
        num_trials: int = 1024,
        trials: Optional[Sequence[Trial]] = None,
    ) -> float:
        """Noisy ensemble expectation value of a Pauli observable.

        Runs the optimized schedule; each *distinct* final state is
        evaluated once and weighted by its trial multiplicity, so the
        deduplication that accelerates counting accelerates expectation
        estimation identically.  As ``num_trials`` grows the value
        converges to the exact channel expectation
        (``observable.expectation_density(run_layered_density(...))``),
        which the integration tests verify.
        """
        trial_list = list(trials) if trials is not None else self.sample(num_trials)
        engine = self.make_backend("statevector")
        total = 0.0

        def on_finish(payload, trial_indices: Tuple[int, ...]) -> None:
            nonlocal total
            total += len(trial_indices) * observable.expectation(payload)

        run_optimized(self.layered, trial_list, engine, on_finish)
        return total / len(trial_list)

    def analyze(
        self,
        num_trials: int = 1024,
        trials: Optional[Sequence[Trial]] = None,
        recorder=None,
    ) -> RunMetrics:
        """Compute the paper's metrics without simulating amplitudes.

        Runs the optimized schedule on the counting backend; the baseline
        count comes from the closed form (verified equal to an actual
        baseline run in the test suite).
        """
        trial_list = list(trials) if trials is not None else self.sample(num_trials)
        engine = CountingBackend(self.layered)
        outcome = run_optimized(self.layered, trial_list, engine, recorder=recorder)
        return compute_metrics(self.layered, trial_list, outcome)
