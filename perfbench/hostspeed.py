"""Host speed, measured by a fixed reference loop beside the timed work.

The CPUs of a shared host do not run at one speed.  On the host this
benchmark was written on, every CPU-bound loop switched between two
speeds within seconds, and at times held the slow one for minutes.  The
CPU time of a process grew with it, and ``/proc/stat`` counted almost
no steal.
Unchanged code then measured up to 1.6 times slower from one run to the
next, past any bound a benchmark can hold a change to.

So the benchmark samples a reference loop while it times requests and
divides each time by a speed factor: the loop's mean time over its
nominal time.  A reported time is in reference seconds, the time the
work would have taken with the loop at its nominal speed.  The loop
calls nothing from ``repro``, so no change to the program moves the
factor, and the raw times are printed beside the normalised ones.
Inside a library request the loop runs from a ``SIGPROF`` timer, so it
samples the speed the request met rather than the speed before or
after it; its own time is taken out of the request's.

The loop should slow down as the workload does.  In the slow speed an
interpreter loop took 1.76 times as long and an array loop on a 256 KB
state 1.30; a Table I request took 1.58 times as long, a QFT(14)
request 1.41 and a BV(14) request 1.48.  So each loop mixes the two: the
``small-state`` one spends about 60 % of its time in the interpreter,
for 5-qubit workloads, and the ``large-state`` one about 30 %, for
14-qubit ones.
"""

from __future__ import annotations

import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter, thread_time
from typing import Callable, Dict, Iterator, List

import numpy as np

__all__ = ["PROBES", "REFERENCE_LAUNCH_S", "Speed", "children_cpu", "reference_launch"]

# One 14-qubit state and a fixed permutation of its indices.
_STATE = np.arange(2**14, dtype=np.complex128)
_PERM = np.random.default_rng(0).permutation(2**14)


def _interpreter(steps: int) -> None:
    """Dictionary updates driven by a linear congruential generator."""
    table = {}
    x = 1
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0xFFFFFFF
        table[x & 1023] = table.get(x & 1023, 0) + 1


def _arrays(rounds: int) -> None:
    """Scale, add, permute and sum probabilities of a 256 KB state."""
    state = _STATE
    for _ in range(rounds):
        state = state * (1 + 1e-9j) + _STATE
        state = state[_PERM]
        np.cumsum(np.abs(state) ** 2)


def _small_state() -> None:
    _interpreter(3000)
    _arrays(2)


def _large_state() -> None:
    _interpreter(1100)
    _arrays(3)


#: Reference loops and their nominal CPU seconds: the fast speed of the
#: host the benchmark was written on (2 vCPUs of an Intel Xeon, Python
#: 3.11, numpy 2.4), as the 10th percentile of 5000 runs.
PROBES = {
    "small-state": (_small_state, 0.00098),
    "large-state": (_large_state, 0.00070),
}


#: Nominal CPU seconds of ``reference_launch``, measured as above over
#: 260 launches.
REFERENCE_LAUNCH_S = 0.13


def children_cpu() -> float:
    """CPU seconds of every reaped child process and its reaped children.

    On a kernel with paravirtual steal accounting this excludes the time
    the hypervisor gave the CPU to another guest.
    """
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def reference_launch(env: Dict[str, str]) -> float:
    """CPU seconds of a fresh interpreter that imports numpy and the
    standard modules a worker imports, then exits.

    Starting a process runs a great deal of code once, and the host's
    slow speed hurts that differently from a hot loop: over 63 launches
    of each workload, set-up CPU time divided by this launch's spread 6 %
    between its quartiles, against 19 % undivided.
    """
    before = children_cpu()
    subprocess.run(
        [sys.executable, "-c",
         "import argparse, json, random, statistics, subprocess, tempfile, numpy"],
        env=env, stdout=subprocess.DEVNULL, check=True, timeout=60,
    )
    return children_cpu() - before


class Speed:
    """Samples of one reference loop, timed on ``clock``.

    ``factor(first)`` is the mean of the samples from ``first`` on over
    the loop's nominal time: above 1 when the host ran slower than
    nominal.
    """

    def __init__(self, kind: str, clock: Callable[[], float] = thread_time) -> None:
        self.loop, self.nominal = PROBES[kind]
        self.clock = clock
        self.samples: List[float] = []

    def _run(self) -> None:
        start = self.clock()
        self.loop()
        self.samples.append(self.clock() - start)

    def sample(self, seconds: float = 0.0) -> None:
        """Run the loop once to warm it, then until ``seconds`` have
        passed, at least once."""
        self.loop()
        deadline = perf_counter() + seconds
        while True:
            self._run()
            if perf_counter() >= deadline:
                return

    @contextmanager
    def during(self, interval: float) -> Iterator[List[float]]:
        """Sample the loop every ``interval`` CPU seconds of this process
        while the block runs, interrupting it (``SIGPROF``).

        Yields a list that, once the block ends, holds the loop's total
        time inside it, for the caller to subtract from what it timed.
        """
        first = len(self.samples)
        spent: List[float] = []
        previous = signal.signal(signal.SIGPROF, lambda signum, frame: self._run())
        signal.setitimer(signal.ITIMER_PROF, interval, interval)
        try:
            yield spent
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)
            spent.append(sum(self.samples[first:]))

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, first: int = 0) -> float:
        return statistics.fmean(self.samples[first:]) / self.nominal
