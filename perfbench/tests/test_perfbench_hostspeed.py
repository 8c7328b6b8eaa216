import signal
from time import thread_time

import pytest

from hostspeed import PROBES, Speed


def _busy(seconds):
    start = thread_time()
    while thread_time() - start < seconds:
        pass


def test_factor_is_mean_sample_over_nominal():
    speed = Speed("large-state")
    nominal = PROBES["large-state"][1]
    speed.samples = [nominal, 2 * nominal, 3 * nominal]
    assert speed.factor() == pytest.approx(2.0)
    assert speed.factor(1) == pytest.approx(2.5)


def test_sample_runs_at_least_once_and_skips_the_warm_up():
    speed = Speed("small-state")
    speed.sample()
    assert len(speed.samples) == 1
    speed.sample(0.02)
    assert len(speed.samples) >= 2
    assert all(took > 0 for took in speed.samples)


def test_during_samples_inside_the_block_and_reports_its_time():
    speed = Speed("large-state")
    before = signal.getsignal(signal.SIGPROF)
    with speed.during(0.01) as spent:
        _busy(0.15)
    assert len(speed.samples) >= 5
    assert spent == [pytest.approx(sum(speed.samples))]
    assert all(took > 0 for took in speed.samples)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
