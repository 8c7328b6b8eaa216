"""The four perfbench workloads and their seeded request lists.

Every input the program receives is drawn here from ``--seed`` before
timing starts: the order of circuits within a pass and every request's
simulator seed.  The same seed gives the same requests.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Tuple

__all__ = [
    "Request",
    "SLO_S",
    "WORKLOADS",
    "Workload",
    "passes",
    "warmup",
]

#: ``serve-family`` latency limit; refused and failed jobs count as misses.
SLO_S = 1.0
#: Seeds a repeated ``serve-family`` job draws from.
SEED_POOL = 4
#: Trials of each warm-up request (one per distinct circuit).
WARMUP_TRIALS = 64


class Request(NamedTuple):
    circuit: str  # a name resolve_benchmark understands
    trials: int
    seed: int


class Workload(NamedTuple):
    name: str
    circuits: Tuple[str, ...]
    trials: int  # per request at full scale
    smoke_trials: int  # per request at --scale smoke
    pass_size: int  # requests per pass
    served: bool
    probe: str  # the hostspeed reference loop that slows down as it does

    def trials_at(self, scale: str) -> int:
        return self.trials if scale == "full" else self.smoke_trials


# Pinned rather than read from repro.bench.suite, so the workload stays
# the same if the suite grows.
TABLE1 = (
    "rb", "grover", "wstate", "7x1mod15", "bv4", "bv5",
    "qft4", "qft5", "qv_n5d2", "qv_n5d3", "qv_n5d4", "qv_n5d5",
)

WORKLOADS = {
    workload.name: workload
    for workload in (
        # The paper's own workload: 5-qubit states, so sampling, plan,
        # dispatch and readout dominate, not kernel width.
        Workload("table1-device", TABLE1, 2048, 256, 12, False, "small-state"),
        # Dense and diagonal kernels on 256 KB states; execute dominates.
        Workload("qft14-dense", ("qft14",), 512, 64, 2, False, "large-state"),
        # All-Clifford with high reuse; readout is a large share.
        Workload("bv14-clifford", ("bv14",), 1024, 128, 4, False, "large-state"),
        # The daemon with one client, half the jobs repeating a (circuit,
        # seed) pair so the shared prefix store is used.
        Workload(
            "serve-family", ("qft5", "qv_n5d3", "grover"), 256, 64, 12, True,
            "small-state",
        ),
    )
}


def _rng(workload: Workload, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload.name}/{stream}/{seed}")


def warmup(workload: Workload, seed: int) -> List[Request]:
    """One small request per distinct circuit, seeds apart from the timed ones."""
    rng = _rng(workload, seed, "warmup")
    return [
        Request(name, WARMUP_TRIALS, rng.randrange(2**31))
        for name in workload.circuits
    ]


def passes(
    workload: Workload, seed: int, scale: str, count: int
) -> List[List[Request]]:
    """``count`` passes of ``workload.pass_size`` requests each.

    A library pass holds every circuit of the workload equally often, in
    a seeded order, so passes carry the same work up to the seeds.  A
    served pass is a slice of the job stream, which rotates through the
    circuits and alternates each circuit between a fresh seed and one
    drawn from a small pool, so every pass has the same mix.
    """
    rng = _rng(workload, seed, "requests")
    trials = workload.trials_at(scale)
    circuits = list(workload.circuits)
    size = workload.pass_size
    if workload.served:
        rng.shuffle(circuits)
        pool = [rng.randrange(2**31) for _ in range(SEED_POOL)]
        jobs = []
        for index in range(count * size):
            reuse = (index // len(circuits)) % 2 == 1
            job_seed = rng.choice(pool) if reuse else rng.randrange(2**31)
            jobs.append(Request(circuits[index % len(circuits)], trials, job_seed))
        return [jobs[i:i + size] for i in range(0, len(jobs), size)]
    result = []
    for _ in range(count):
        names = [circuits[i % len(circuits)] for i in range(size)]
        rng.shuffle(names)
        result.append(
            [Request(name, trials, rng.randrange(2**31)) for name in names]
        )
    return result
