"""Unit tests for the two-level memory model (IOCounter, TwoLevelMemory)."""

import pytest

from repro.exceptions import MemoryModelError, ParameterError
from repro.sequential.machine import IOCounter, TwoLevelMemory


class TestIOCounter:
    def test_counts(self):
        counter = IOCounter()
        counter.load(5)
        counter.store(3)
        counter.load()
        assert counter.loads == 6
        assert counter.stores == 3
        assert counter.words_moved == 9

    def test_reset(self):
        counter = IOCounter()
        counter.load(10)
        counter.reset()
        assert counter.words_moved == 0

    def test_merge(self):
        a, b = IOCounter(), IOCounter()
        a.load(2)
        b.store(3)
        a.merge(b)
        assert a.words_moved == 5

    def test_snapshot(self):
        counter = IOCounter()
        counter.load(1)
        snap = counter.snapshot()
        assert snap == {"loads": 1, "stores": 0, "words_moved": 1}

    def test_negative_rejected(self):
        counter = IOCounter()
        with pytest.raises(ParameterError):
            counter.load(-1)
        with pytest.raises(ParameterError):
            counter.store(-1)


class TestTwoLevelMemoryResidency:
    def test_load_and_evict(self):
        mem = TwoLevelMemory(capacity=4)
        mem.load_value("a")
        assert mem.used == 1
        mem.evict("a")
        assert mem.used == 0
        assert mem.loads == 1

    def test_capacity_enforced(self):
        mem = TwoLevelMemory(capacity=2)
        mem.load_value("a")
        mem.load_value("b")
        with pytest.raises(MemoryModelError):
            mem.load_value("c")

    def test_sized_values(self):
        mem = TwoLevelMemory(capacity=10)
        mem.load_value("block", size=8)
        assert mem.used == 8
        with pytest.raises(MemoryModelError):
            mem.load_value("other", size=3)

    def test_redundant_load_still_charges(self):
        mem = TwoLevelMemory()
        mem.load_value("a")
        mem.load_value("a")
        assert mem.loads == 2
        assert mem.used == 1

    def test_unbounded_capacity(self):
        mem = TwoLevelMemory()
        for i in range(1000):
            mem.load_value(("x", i))
        assert mem.used == 1000


class TestTwoLevelMemoryDirtyTracking:
    def test_store_requires_residency(self):
        mem = TwoLevelMemory()
        with pytest.raises(MemoryModelError):
            mem.store_value("ghost")

    def test_dirty_value_cannot_be_evicted(self):
        mem = TwoLevelMemory()
        mem.load_value("b")
        mem.touch("b")
        with pytest.raises(MemoryModelError):
            mem.evict("b")

    def test_store_cleans_dirty_flag(self):
        mem = TwoLevelMemory()
        mem.load_value("b")
        mem.touch("b")
        mem.store_value("b")
        mem.evict("b")  # no error
        assert mem.stores == 1

    def test_touch_requires_residency(self):
        mem = TwoLevelMemory()
        with pytest.raises(MemoryModelError):
            mem.touch("nope")

    def test_invalid_capacity(self):
        with pytest.raises(ParameterError):
            TwoLevelMemory(capacity=0)
