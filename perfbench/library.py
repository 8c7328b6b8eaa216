"""Library requests: the user's call, its traced rebuild, the closed loop.

``plain`` is what a user runs: ``NoisySimulator(circuit, model, seed)``
then ``run(num_trials=N)`` with default options.  ``traced`` rebuilds the
same request from the layers' public calls, with a benchmark span around
each call, and reproduces ``plain``'s counts exactly: the simulator seeds
one generator that first samples the trials and then reads out every
finished state, in the same order ``NoisySimulator.run`` uses.
"""

from __future__ import annotations

import re
import statistics
from time import perf_counter, thread_time
from typing import Callable, Dict, List, Sequence

import numpy as np

from hostspeed import Speed
from repro import InMemoryRecorder, NoisySimulator, run_optimized, sample_trials
from repro.core.metrics import compute_metrics
from repro.obs.summary import summarize
from repro.sim.measurement import apply_readout_flips
from spans import Spans, self_times

__all__ = [
    "KERNEL_KINDS",
    "PROBE_SHARE",
    "SAMPLE_INTERVAL",
    "STAGES",
    "closed_loop",
    "kernel_counts",
    "plain",
    "stage_metrics",
    "traced",
]

#: Spans of a traced request, in pipeline order; ``readout`` nests
#: inside ``execute`` and is subtracted from its self time.
STAGES = ("layerize", "sampling", "plan", "execute", "readout")
KERNEL_KINDS = ("dense", "diagonal", "permutation", "controlled")
#: CPU seconds between reference-loop samples inside a request.
SAMPLE_INTERVAL = 0.025
#: Reference-loop time after a request that cannot be sampled inside,
#: as a share of the request's time.
PROBE_SHARE = 0.05
_KERNELS_SPAN = re.compile(r"kernels\[(\d+),(\d+)\)$")


def plain(request, circuit, model, backend: str = "statevector") -> Dict:
    """One ``run()`` call, timed from the request to its counts.

    ``time`` is the calling thread's CPU time over the request and
    ``latency`` its wall time; they differ by the time the host ran
    something else.
    """
    start, cpu_start = perf_counter(), thread_time()
    sim = NoisySimulator(circuit, model, seed=request.seed)
    ready = perf_counter()
    result = sim.run(num_trials=request.trials, backend=backend)
    end, cpu_end = perf_counter(), thread_time()
    return {
        "time": cpu_end - cpu_start,
        "latency": end - start,
        "exec": end - ready,
        "counts": result.counts,
        "ops": result.metrics.optimized_ops,
        "ops_shared": result.ops_shared,
    }


def traced(request, circuit, model, recorder=None) -> Dict:
    """The same request, rebuilt stage by stage inside benchmark spans.

    ``recorder`` goes to ``run_optimized``; the timed traced passes leave
    it off so the executor runs its untraced path.
    """
    spans = Spans()
    counts: Dict[str, int] = {}
    finish_calls = 0
    cpu_start = thread_time()
    with spans.span("request"):
        with spans.span("layerize"):
            sim = NoisySimulator(circuit, model, seed=request.seed)
        rng = np.random.default_rng(request.seed)
        with spans.span("sampling"):
            trials = sample_trials(sim.layered, model, request.trials, rng)
        with spans.span("plan"):
            plan = sim.plan(trials)
        with spans.span("execute"):
            engine = sim.make_backend("statevector")
            measurements = sim.layered.measurements
            width = circuit.num_clbits

            def on_finish(payload, indices) -> None:
                nonlocal finish_calls
                finish_calls += 1
                with spans.span("readout"):
                    for index in indices:
                        clbits = engine.sample_clbits(payload, measurements, rng)
                        clbits = apply_readout_flips(
                            clbits, trials[index].meas_flips
                        )
                        bits = "".join(
                            str(clbits.get(c, 0)) for c in range(width)
                        )
                        counts[bits] = counts.get(bits, 0) + 1

            outcome = run_optimized(
                sim.layered, trials, engine, on_finish, plan=plan,
                recorder=recorder,
            )
    cpu = thread_time() - cpu_start
    metrics = compute_metrics(sim.layered, trials, outcome)
    return {
        "time": cpu,
        "latency": spans.records[0].duration,
        "stages": self_times(spans.records),
        "counts": counts,
        "ops": outcome.ops_applied,
        "peak_msv": outcome.peak_msv,
        "saving": metrics.computation_saving,
        "instructions": len(plan),
        "finish_calls": finish_calls,
        "sim": sim,
    }


def kernel_counts(request, circuit, model) -> Dict:
    """Kernel dispatches and segment reuse, from the program's recorder.

    Replays ``request`` with an ``InMemoryRecorder`` on the executor and
    reads what the program already records: one ``kernels[s,e)`` span per
    compiled-segment replay, and the segment compile/hit counters.  Each
    replay dispatches every kernel of that segment's compiled program.
    """
    recorder = InMemoryRecorder()
    run = traced(request, circuit, model, recorder=recorder)
    summary = summarize(recorder)
    compiled = run["sim"].compiled_circuit()
    kinds = dict.fromkeys(KERNEL_KINDS, 0)
    for name, (count, _) in recorder.span_durations().items():
        match = _KERNELS_SPAN.match(name)
        if match:
            program = compiled.segment(int(match[1]), int(match[2]))
            for kernel in program:
                kinds[kernel.kind] = kinds.get(kernel.kind, 0) + count
    result = {f"kernel.{kind}": kinds[kind] for kind in KERNEL_KINDS}
    result["kernel.segment_reuse"] = summary.segment_reuse_ratio
    result["ops"] = summary.ops_applied
    result["counts"] = run["counts"]
    return result


def closed_loop(
    request_passes: Sequence[Sequence],
    senders: Dict[str, Callable[[object], Dict]],
    seconds: float,
    speed: Speed,
    in_request: bool,
) -> Dict[str, List]:
    """One client, each request sent when the previous one returned.

    Runs whole passes and starts no pass the median pass so far says
    would end after ``seconds`` of wall time.  Every pass runs once per
    sender, in order, so a request of a later sender has a twin with the
    same inputs in the first.  A sender returns the request's ``time``.

    ``speed`` samples its reference loop during each request, every
    ``SAMPLE_INTERVAL`` of this process's CPU time, when ``in_request``
    (the loop's time is taken out of the request's).  Otherwise, or if
    the request ended before a sample, it samples for ``PROBE_SHARE`` of
    the request's time after it.  The request's ``scaled`` time is its
    time over the factor of its samples, in reference seconds.  A pass
    is recorded as ``(trials, seconds, reference seconds)``.
    """
    out: Dict[str, List] = {}
    for mode in senders:
        out[mode], out[f"{mode}_passes"] = [], []
    rounds: List[float] = []
    start = perf_counter()
    for index, requests in enumerate(request_passes):
        if rounds and perf_counter() - start + statistics.median(rounds) > seconds:
            break
        round_start = perf_counter()
        for mode, send in senders.items():
            runs = []
            for position, request in enumerate(requests):
                first = speed.mark()
                if in_request:
                    with speed.during(SAMPLE_INTERVAL) as spent:
                        run = send(request)
                    run["time"] -= spent[0]
                else:
                    run = send(request)
                if speed.mark() == first:
                    speed.sample(PROBE_SHARE * run["time"])
                run["scaled"] = run["time"] / speed.factor(first)
                run["request"] = request
                run["slot"] = (index, position)
                runs.append(run)
            out[mode].extend(runs)
            out[f"{mode}_passes"].append((
                sum(r.trials for r in requests),
                sum(run["time"] for run in runs),
                sum(run["scaled"] for run in runs),
            ))
        rounds.append(perf_counter() - round_start)
    return out


def stage_metrics(runs: Sequence[Dict], kernels: Sequence[Dict]) -> Dict[str, tuple]:
    """Per-layer ``(median per request, unit)`` over traced runs and
    kernel replays."""
    def median_of(values) -> float:
        return float(statistics.median(list(values)))

    metrics: Dict[str, tuple] = {}
    for name in ("sampling", "plan", "execute", "readout"):
        metrics[f"{name}.self_s"] = (median_of(r["stages"][name] for r in runs), "s")
        metrics[f"{name}.share"] = (
            median_of(r["stages"][name] / r["latency"] for r in runs), "ratio"
        )
    metrics["plan.instructions"] = (median_of(r["instructions"] for r in runs), "count")
    metrics["execute.ops"] = (median_of(r["ops"] for r in runs), "count")
    metrics["execute.ops_per_s"] = (
        median_of(r["ops"] / r["stages"]["execute"] for r in runs), "ops/s"
    )
    metrics["execute.saving"] = (median_of(r["saving"] for r in runs), "ratio")
    metrics["execute.peak_msv"] = (median_of(r["peak_msv"] for r in runs), "count")
    metrics["readout.calls"] = (median_of(r["finish_calls"] for r in runs), "count")
    for kind in KERNEL_KINDS:
        key = f"kernel.{kind}"
        metrics[key] = (median_of(k[key] for k in kernels), "count")
    metrics["kernel.segment_reuse"] = (
        median_of(k["kernel.segment_reuse"] for k in kernels), "ratio"
    )
    return metrics
