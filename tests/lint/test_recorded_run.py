"""check_recorded_run: a clean recorded run of every executor passes the
evidence the options table names for it, and a tampered recording fails
the check that guards what was tampered with."""

import pytest

from repro import NoisySimulator
from repro.bench.suite import resolve_benchmark
from repro.core.options import EXECUTORS, validate
from repro.core.resilience import run_journaled
from repro.lint import check_recorded_run
from repro.obs import InMemoryRecorder

SEED = 7
EVIDENCE = {executor.name: executor.evidence for executor in EXECUTORS}


class Recorded:
    """One recorded run and the options it was given."""

    def __init__(self, name, num_trials, options):
        circuit, model = resolve_benchmark(name)
        self.sim = NoisySimulator(circuit, model, seed=SEED)
        self.trials = self.sim.sample(num_trials)
        self.options = options
        self.recorder = InMemoryRecorder()
        self.metrics = self.sim.run(
            trials=self.trials, recorder=self.recorder, **options
        ).metrics

    def checks(self):
        return check_recorded_run(
            self.sim.layered, self.trials, self.recorder, self.metrics,
            compiled=self.sim.compiled_circuit(), **self.options,
        )


def _journal_run(tmp_path, resumed):
    path = str(tmp_path / "run.journal")
    if resumed:
        circuit, model = resolve_benchmark("qft5")
        sim = NoisySimulator(circuit, model, seed=SEED)
        trials = sim.sample(128)
        finished = []

        def crash_after_five(payload, indices):
            finished.append(indices)
            if len(finished) == 5:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_journaled(
                sim.layered, trials, lambda: sim.make_backend("statevector"),
                crash_after_five, path,
            )
    return Recorded("qft5", 128, {"journal": path})


def _drop_first(recorder, ph, prefix):
    """Delete the first ``ph`` event whose name starts with ``prefix``."""
    events = recorder.events
    del events[next(
        i for i, event in enumerate(events)
        if event.ph == ph and event.name.startswith(prefix)
    )]


def _drop_store(recorder):
    _drop_first(recorder, "i", "cache.store")


def _drop_advance(recorder):
    _drop_first(recorder, "B", "advance[")


def _bump_ops(recorder):
    recorder.counters["ops.applied"] += 1


def _bump_spills(recorder):
    recorder.counter("cache.spill", 1)


SERIAL = [
    ("bv4", 128, {}),
    ("qft5", 128, {}),
    ("qft5", 128, {"backend": "counting"}),
    ("bv4", 128, {"mode": "baseline"}),
    ("qft5", 128, {"mode": "baseline", "backend": "statevector-interpreted"}),
    ("bv14", 64, {"hybrid": True}),
    ("bv14", 64, {}),
    ("qft5", 256, {"max_cache_bytes": 1100}),
]


def _id(options):
    return ",".join(f"{key}={value}" for key, value in options.items()) or "defaults"


def _expected(options):
    """The evidence names the table gives ``options``."""
    return list(EVIDENCE[validate(**options).name])


class TestCleanRunsPass:
    @pytest.mark.parametrize(
        "name, num_trials, options", SERIAL,
        ids=[f"{name}-{_id(options)}" for name, _, options in SERIAL],
    )
    def test_serial(self, name, num_trials, options):
        run = Recorded(name, num_trials, options)
        checks = run.checks()
        assert list(checks) == _expected(options)
        assert not any(checks.values()), checks

    def test_hybrid_run_is_active(self):
        run = Recorded("bv14", 64, {"hybrid": True})
        assert run.recorder.counter_total("hybrid.clifford_ops") > 0

    @pytest.mark.parametrize("resumed", (False, True), ids=("fresh", "resumed"))
    def test_journal(self, tmp_path, resumed):
        run = _journal_run(tmp_path, resumed)
        assert run.metrics.num_trials == 128
        checks = run.checks()
        assert list(checks) == ["P019", "P025"]
        assert not any(checks.values()), checks


class TestTamperedRunsFail:
    @pytest.mark.parametrize(
        "name, num_trials, options, tamper, code",
        [
            ("bv4", 128, {}, _drop_store, "P017"),
            ("bv4", 128, {"mode": "baseline"}, _bump_ops, "replay"),
            ("bv14", 64, {"hybrid": True}, _drop_advance, "P020"),
            ("bv14", 64, {}, _drop_advance, "P020"),
            ("qft5", 256, {"max_cache_bytes": 1100}, _bump_spills, "P023"),
            ("bv14", 64, {"hybrid": True}, _bump_spills, "P023"),
        ],
        ids=[
            "dfs", "baseline", "hybrid", "default-pick-hybrid",
            "budget-extra-spill", "hybrid-spill",
        ],
    )
    def test_tampered(self, name, num_trials, options, tamper, code):
        run = Recorded(name, num_trials, options)
        tamper(run.recorder)
        assert run.checks()[code]

    def test_journal(self, tmp_path):
        run = _journal_run(tmp_path, resumed=False)
        _bump_ops(run.recorder)
        assert run.checks()["P025"]
