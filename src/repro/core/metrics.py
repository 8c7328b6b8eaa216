"""Evaluation metrics (Sec. V "Metrics").

The paper reports two implementation-independent quantities:

* **Normalized computation** — basic operations (matrix-vector
  multiplications) of the optimized run divided by the baseline's count for
  the *same* trial set.  ``1 - normalized`` is the computation saving.
* **Maintained State Vectors (MSVs)** — the peak number of simultaneously
  live statevectors during the optimized run.

:class:`RunMetrics` bundles both, plus the trial-set statistics that explain
them (distinct-trial count, error statistics).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..circuits.layers import LayeredCircuit
from .events import Trial
from .executor import ExecutionOutcome, baseline_operation_count

__all__ = ["RunMetrics", "compute_metrics"]


class RunMetrics:
    """Computation and memory metrics of one optimized simulation."""

    def __init__(
        self,
        num_trials: int,
        num_distinct_trials: int,
        optimized_ops: int,
        baseline_ops: int,
        peak_msv: int,
        peak_stored: int,
        num_gates: int,
        num_layers: int,
    ) -> None:
        self.num_trials = num_trials
        self.num_distinct_trials = num_distinct_trials
        self.optimized_ops = optimized_ops
        self.baseline_ops = baseline_ops
        self.peak_msv = peak_msv
        self.peak_stored = peak_stored
        self.num_gates = num_gates
        self.num_layers = num_layers

    @property
    def normalized_computation(self) -> float:
        """Optimized ops / baseline ops (lower is better; 1.0 = no saving)."""
        if self.baseline_ops == 0:
            return 1.0
        return self.optimized_ops / self.baseline_ops

    @property
    def computation_saving(self) -> float:
        """Fraction of baseline computation eliminated."""
        return 1.0 - self.normalized_computation

    @property
    def duplication_ratio(self) -> float:
        if self.num_distinct_trials == 0:
            return 0.0
        return self.num_trials / self.num_distinct_trials

    def statevector_bytes(self, num_qubits: int) -> int:
        """Memory of one dense statevector (complex128 amplitudes)."""
        return 16 * 2**num_qubits

    def peak_state_memory_bytes(self, num_qubits: int) -> int:
        """Peak memory held in state vectors during the optimized run.

        ``peak_msv`` statevectors of ``2**n`` complex128 amplitudes — the
        concrete number behind the paper's MSV metric (the baseline holds
        exactly one).
        """
        return self.peak_msv * self.statevector_bytes(num_qubits)

    def as_dict(self) -> dict:
        return {
            "num_trials": self.num_trials,
            "num_distinct_trials": self.num_distinct_trials,
            "optimized_ops": self.optimized_ops,
            "baseline_ops": self.baseline_ops,
            "normalized_computation": self.normalized_computation,
            "computation_saving": self.computation_saving,
            "peak_msv": self.peak_msv,
            "peak_stored": self.peak_stored,
            "num_gates": self.num_gates,
            "num_layers": self.num_layers,
        }

    def __repr__(self) -> str:
        return (
            f"RunMetrics(trials={self.num_trials}, "
            f"normalized={self.normalized_computation:.3f}, "
            f"msv={self.peak_msv})"
        )


def compute_metrics(
    layered: LayeredCircuit,
    trials: Sequence[Trial],
    outcome: ExecutionOutcome,
    baseline_ops: Optional[int] = None,
) -> RunMetrics:
    """Build :class:`RunMetrics` from an optimized-run outcome.

    ``baseline_ops`` defaults to the closed-form baseline count for the same
    trial set (verified in tests to match an actual baseline run).
    """
    if baseline_ops is None:
        baseline_ops = baseline_operation_count(layered, trials)
    return RunMetrics(
        num_trials=len(trials),
        num_distinct_trials=len(set(trials)),
        optimized_ops=outcome.ops_applied,
        baseline_ops=baseline_ops,
        peak_msv=outcome.peak_msv,
        peak_stored=outcome.peak_stored,
        num_gates=layered.num_gates,
        num_layers=layered.num_layers,
    )
