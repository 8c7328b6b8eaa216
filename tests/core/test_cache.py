"""Tests for the state cache and MSV accounting."""

import pytest

from repro.core import StateCache
from repro.core.cache import CacheBudget, SpilledSnapshot


class TestSlots:
    def test_store_take_roundtrip(self):
        cache = StateCache()
        cache.store("state-a", 3, 0)
        assert cache.peek(0) == ("state-a", 3)
        assert cache.take(0) == ("state-a", 3)

    def test_take_twice_fails(self):
        cache = StateCache()
        cache.store("x", 0, 0)
        cache.take(0)
        with pytest.raises(KeyError):
            cache.take(0)

    def test_peek_unknown_fails(self):
        with pytest.raises(KeyError):
            StateCache().peek(0)


class TestExplicitSlots:
    def test_store_honors_requested_slot(self):
        cache = StateCache()
        cache.store("a", 0, 5)
        assert cache.peek(5) == ("a", 0)

    def test_store_occupied_slot_raises(self):
        cache = StateCache()
        cache.store("a", 0, 2)
        with pytest.raises(RuntimeError, match="slot 2 is already occupied"):
            cache.store("b", 1, 2)


class TestBudget:
    def test_stub_counts_as_a_spill_not_a_resident_state(self):
        cache = StateCache(budget=CacheBudget(16), state_bytes=16)
        cache.working_created()
        assert cache.full
        cache.store(SpilledSnapshot("snapshot.c128", 0), 1, 0)
        stats = cache.stats()
        assert (stats.spills, stats.snapshots_taken) == (1, 1)
        assert (stats.peak_resident_msv, stats.peak_msv) == (1, 2)
        assert cache.coldest_resident_slot() is None


class TestAccounting:
    def test_peaks(self):
        cache = StateCache()
        cache.working_created()
        cache.store("a", 0, 0)
        cache.store("b", 1, 1)
        assert cache.num_stored == 2
        assert cache.num_live == 3
        cache.take(1)
        cache.take(0)
        cache.working_destroyed()
        stats = cache.stats()
        assert stats.peak_msv == 3
        assert stats.peak_stored == 2
        assert stats.snapshots_taken == 2
        assert stats.snapshots_released == 2

    def test_working_only(self):
        cache = StateCache()
        cache.working_created()
        cache.working_destroyed()
        assert cache.stats().peak_msv == 1
        assert cache.stats().peak_stored == 0

    def test_working_underflow_rejected(self):
        with pytest.raises(RuntimeError):
            StateCache().working_destroyed()

    def test_assert_drained_passes_when_empty(self):
        cache = StateCache()
        cache.working_created()
        cache.working_destroyed()
        cache.assert_drained()

    def test_assert_drained_catches_leaked_slot(self):
        cache = StateCache()
        cache.store("leak", 0, 0)
        with pytest.raises(RuntimeError):
            cache.assert_drained()

    def test_assert_drained_catches_live_working(self):
        cache = StateCache()
        cache.working_created()
        with pytest.raises(RuntimeError):
            cache.assert_drained()

    def test_stats_repr(self):
        assert "CacheStats" in repr(StateCache().stats())
