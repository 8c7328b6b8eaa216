"""P024: wavefront plans symbolically replayed against their serial plan.

A clean wavefront plan must lint clean; every structural corruption —
mismatched step segments, reordered steps, forged finish order, a
batch-width lie — must fire ``P024`` with a concrete message.  The rule
is the static counterpart of the bit-exactness tests in
``tests/core/test_wavefront.py``: it proves the *schedule* is a pure
regrouping of the serial instruction stream before a single amplitude
is touched.
"""

import copy
import json

import numpy as np
import pytest

from repro.circuits.layers import layerize
from repro.core.schedule import build_plan
from repro.core.wavefront import WavefrontPlan, plan_wavefronts
from repro.lint import build_certificate, lint_wavefront
from repro.lint.costmodel import validate_certificate
from repro.lint.registry import get_rule
from repro.testing import random_circuit, random_trials


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(17)
    circuit = random_circuit(6, 40, rng)
    layered = layerize(circuit)
    trials = random_trials(layered, 24, rng, max_errors=3)
    plan = build_plan(layered, trials)
    return layered, trials, plan


def rebuild(wavefront, lanes=None, steps=None, batch_size=None):
    """Reassemble a (possibly corrupted) plan through the real constructor."""
    return WavefrontPlan(
        lanes if lanes is not None else wavefront.lanes,
        steps if steps is not None else wavefront.steps,
        batch_size if batch_size is not None else wavefront.batch_size,
        wavefront.num_layers,
        wavefront.num_trials,
        wavefront.entry_layer,
        wavefront.entry_events,
    )


class TestCleanPlans:
    @pytest.mark.parametrize("batch", (1, 2, 8, 64))
    def test_clean_plan_lints_ok(self, case, batch):
        layered, _trials, plan = case
        wavefront = plan_wavefronts(plan, batch)
        result = lint_wavefront(wavefront, plan, layered=layered)
        assert result.ok, [str(d) for d in result.diagnostics]
        assert result.info["num_lanes"] == len(wavefront.lanes)
        assert result.info["num_steps"] == len(wavefront.steps)
        assert result.info["max_width"] <= batch
        assert result.info["batched_ops"] == result.info["serial_ops"]

    def test_ops_conservation_needs_layered(self, case):
        # Without the circuit the rule still replays the schedule; it
        # just cannot check gate totals.
        _layered, _trials, plan = case
        wavefront = plan_wavefronts(plan, 8)
        result = lint_wavefront(wavefront, plan)
        assert result.ok

    def test_rule_registered_with_explanation(self):
        rule = get_rule("P024")
        assert rule.name == "wavefront-soundness"
        assert "serial" in rule.explanation.lower()


class TestCorruptions:
    def _p024(self, result):
        assert not result.ok
        assert all(d.code == "P024" for d in result.diagnostics)
        return [d.message for d in result.diagnostics]

    def test_swapped_finish_trials(self, case):
        layered, _trials, plan = case
        wavefront = plan_wavefronts(plan, 8)
        lanes = copy.deepcopy(list(wavefront.lanes))
        finishing = [lane for lane in lanes if lane.finish is not None]
        assert len(finishing) >= 2
        a, b = finishing[0], finishing[1]
        # Swap the trial groups but keep the ranks: the batched run would
        # deliver the wrong trials at each serial position.
        a.finish, b.finish = (
            (a.finish[0], b.finish[1]),
            (b.finish[0], a.finish[1]),
        )
        corrupted = rebuild(wavefront, lanes=lanes)
        messages = self._p024(
            lint_wavefront(corrupted, plan, layered=layered)
        )
        assert any("finish" in m for m in messages)

    def test_mutated_station_segment(self, case):
        layered, _trials, plan = case
        wavefront = plan_wavefronts(plan, 8)
        lanes = copy.deepcopy(list(wavefront.lanes))
        victim = next(
            lane for lane in lanes
            if any(end > start for start, end in lane.stations)
        )
        stations = list(victim.stations)
        index = next(
            i for i, (start, end) in enumerate(stations) if end > start
        )
        start, end = stations[index]
        stations[index] = (start, end - 1)  # silently skip one layer
        victim.stations = tuple(stations)
        corrupted = rebuild(wavefront, lanes=lanes)
        self._p024(lint_wavefront(corrupted, plan, layered=layered))

    def test_reordered_steps(self, case):
        layered, _trials, plan = case
        wavefront = plan_wavefronts(plan, 8)
        steps = list(wavefront.steps)
        assert len(steps) >= 3
        steps[1], steps[-1] = steps[-1], steps[1]
        corrupted = rebuild(wavefront, steps=steps)
        messages = self._p024(
            lint_wavefront(corrupted, plan, layered=layered)
        )
        # A row now materializes before its source row exists.
        assert any("before" in m or "produced" in m for m in messages)

    def test_batch_width_lie(self, case):
        layered, _trials, plan = case
        wavefront = plan_wavefronts(plan, 8)
        assert any(len(step.rows) > 2 for step in wavefront.steps)
        corrupted = rebuild(wavefront, batch_size=2)
        messages = self._p024(
            lint_wavefront(corrupted, plan, layered=layered)
        )
        assert any("width" in m or "batch" in m for m in messages)


class TestCertificateWavefrontSection:
    @pytest.fixture(scope="class")
    def certificate(self, case):
        layered, trials, _plan = case
        return build_certificate(layered, list(trials), batches=(1, 4, 8))

    def test_ops_invariant_across_widths(self, case, certificate):
        _layered, _trials, plan = case
        entries = certificate["wavefront"]
        assert [e["batch"] for e in entries] == [1, 4, 8]
        serial_ops = certificate["plan"]["ops"]
        for entry in entries:
            assert entry["ops"] == serial_ops

    def test_validate_accepts_clean(self, certificate):
        assert validate_certificate(certificate) == []

    def test_validate_rejects_tampered_ops(self, certificate):
        clone = json.loads(json.dumps(certificate))
        clone["wavefront"][1]["ops"] += 5
        problems = validate_certificate(clone)
        assert problems and any("wavefront" in p for p in problems)
