"""Shared fixtures for the test suite."""

import os
import stat

import numpy as np
import pytest

from repro.bench import bv4, grover3, qv_n5, rb2, seven_x_one_mod15, wstate3
from repro.circuits import QuantumCircuit, layerize
from repro.noise import NoiseModel, ibm_yorktown


class FsyncLog(list):
    """The ``os.fstat`` of each file ``os.fsync`` was called on, in order."""

    def sizes(self, path):
        """The size of regular file ``path`` at each fsync of it."""
        inode = os.stat(path).st_ino
        return [
            status.st_size
            for status in self
            if status.st_ino == inode and stat.S_ISREG(status.st_mode)
        ]


@pytest.fixture
def fsync_log(monkeypatch):
    """Wrap ``os.fsync`` for one test; returns the :class:`FsyncLog`."""
    log = FsyncLog()
    real = os.fsync

    def spy(fd):
        log.append(os.fstat(fd))
        return real(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return log


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def bell_circuit():
    circuit = QuantumCircuit(2, name="bell")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure_all()
    return circuit


@pytest.fixture
def ghz3_circuit():
    circuit = QuantumCircuit(3, name="ghz3")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    circuit.measure_all()
    return circuit


@pytest.fixture
def yorktown_model():
    return ibm_yorktown()


@pytest.fixture
def mild_noise():
    """A uniform model strong enough to exercise error paths quickly."""
    return NoiseModel.uniform(0.01, name="mild")
