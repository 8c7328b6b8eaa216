"""Scalability experiments: Figs. 7 and 8.

Quantum Volume circuits from 10 to 40 qubits (depth 5-20) under the four
artificial error models (single-qubit rate 1e-3 .. 1e-4, two-qubit and
measurement 10x).  The default trial count is laptop-sized (10^5); pass
``num_trials=1_000_000`` to match the paper exactly, though the largest
configurations then take minutes each.

The sweep runs on the packed engine (:mod:`repro.core.packed`):
byte-packed trials and a streaming cost pass, which is what makes 10^6
trials on n40,d20 fit in laptop memory.  It computes the same metrics as
the Trial/trie/plan pipeline on the counting backend, which
:meth:`~repro.core.runner.NoisySimulator.analyze` runs
(``tests/core/test_packed.py::TestAnalysisParity`` holds the two equal),
and never allocates a 2**40-amplitude statevector: the paper's metric
depends only on the schedule (see :mod:`repro.sim.counting`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..bench.qv import QV_SCALABILITY_SIZES, quantum_volume
from ..circuits.layers import layerize
from ..core.packed import analyze_packed_trials, sample_packed_trials
from ..noise.devices import ARTIFICIAL_ERROR_LEVELS, artificial_model

__all__ = [
    "ScalabilityRecord",
    "run_scalability_experiment",
    "fig7_rows",
    "fig8_rows",
    "error_level_label",
]


def error_level_label(single_rate: float) -> str:
    """Fig. 7/8 legend label, e.g. ``"1e-03/1e-02"`` (single/two-qubit)."""
    return f"{single_rate:.0e}/{10 * single_rate:.0e}"


class ScalabilityRecord:
    """One (circuit size, error level) cell of Figs. 7-8."""

    def __init__(
        self,
        num_qubits: int,
        depth: int,
        single_rate: float,
        num_trials: int,
        normalized_computation: float,
        peak_msv: int,
        optimized_ops: int,
        baseline_ops: int,
    ) -> None:
        self.num_qubits = num_qubits
        self.depth = depth
        self.single_rate = single_rate
        self.num_trials = num_trials
        self.normalized_computation = normalized_computation
        self.peak_msv = peak_msv
        self.optimized_ops = optimized_ops
        self.baseline_ops = baseline_ops

    @property
    def size_label(self) -> str:
        return f"n{self.num_qubits},d{self.depth}"

    @property
    def computation_saving(self) -> float:
        return 1.0 - self.normalized_computation

    def __repr__(self) -> str:
        return (
            f"ScalabilityRecord({self.size_label}, p1={self.single_rate:g}, "
            f"normalized={self.normalized_computation:.3f}, "
            f"msv={self.peak_msv})"
        )


def run_scalability_experiment(
    sizes: Sequence[Tuple[int, int]] = QV_SCALABILITY_SIZES,
    error_levels: Sequence[float] = ARTIFICIAL_ERROR_LEVELS,
    num_trials: int = 100_000,
    seed: int = 2020,
) -> List[ScalabilityRecord]:
    """Run the Fig. 7 / Fig. 8 sweep (metrics only, no amplitudes)."""
    records: List[ScalabilityRecord] = []
    for num_qubits, depth in sizes:
        layered = layerize(quantum_volume(num_qubits, depth, seed=seed))
        for single_rate in error_levels:
            model = artificial_model(single_rate)
            rng = np.random.default_rng(seed)
            packed = sample_packed_trials(layered, model, num_trials, rng)
            metrics = analyze_packed_trials(layered, packed)
            records.append(
                ScalabilityRecord(
                    num_qubits=num_qubits,
                    depth=depth,
                    single_rate=single_rate,
                    num_trials=num_trials,
                    normalized_computation=metrics.normalized_computation,
                    peak_msv=metrics.peak_msv,
                    optimized_ops=metrics.optimized_ops,
                    baseline_ops=metrics.baseline_ops,
                )
            )
    return records


def _pivot(
    records: Sequence[ScalabilityRecord], field: str
) -> List[Dict[str, object]]:
    rows: Dict[str, Dict[str, object]] = {}
    for record in records:
        row = rows.setdefault(record.size_label, {"circuit": record.size_label})
        row[error_level_label(record.single_rate)] = getattr(record, field)
    return list(rows.values())


def fig7_rows(records: Sequence[ScalabilityRecord]) -> List[Dict[str, object]]:
    """Fig. 7 layout: normalized computation, circuit x error level."""
    return _pivot(records, "normalized_computation")


def fig8_rows(records: Sequence[ScalabilityRecord]) -> List[Dict[str, object]]:
    """Fig. 8 layout: MSVs, circuit x error level."""
    return _pivot(records, "peak_msv")
