"""Tests for the workspace pool.

The pool's contract: first borrow of a shape allocates (miss), later borrows
reuse released buffers (hit), the free arena is capacity-bounded with
oldest-released-first eviction, the high-water mark tracks total checked-out
plus pooled words, and all of it is safe under concurrent borrow/release
from the chunk executor's worker threads.
"""

import numpy as np
import pytest

from repro.backend.parallel import parallel_map
from repro.backend.workspace import (
    DEFAULT_WORKSPACE_CAPACITY_WORDS,
    WorkspacePool,
    default_pool,
    reset_default_pool,
)
from repro.exceptions import ParameterError
from repro.observe import tracing


class TestBorrowRelease:
    def test_first_borrow_misses_second_hits(self):
        pool = WorkspacePool()
        a = pool.borrow((4, 3))
        assert (pool.misses, pool.hits) == (1, 0)
        assert a.shape == (4, 3) and a.dtype == np.float64
        pool.release(a)
        b = pool.borrow((4, 3))
        assert (pool.misses, pool.hits) == (1, 1)
        assert b is a  # the same buffer came back
        pool.release(b)

    def test_distinct_shapes_and_dtypes_do_not_alias(self):
        pool = WorkspacePool()
        a = pool.borrow((4, 3))
        b = pool.borrow((3, 4))
        c = pool.borrow((4, 3), dtype=np.float32)
        assert pool.misses == 3
        assert {id(a), id(b), id(c)} == {id(a), id(b), id(c)}
        for buf in (a, b, c):
            pool.release(buf)
        assert pool.borrow((3, 4)) is b

    def test_reused_buffer_is_stale_unless_zeroed(self):
        pool = WorkspacePool()
        a = pool.borrow((2, 2))
        a[:] = 7.0
        pool.release(a)
        stale = pool.borrow((2, 2))
        assert stale[0, 0] == 7.0
        pool.release(stale)
        zeroed = pool.borrow((2, 2), zero=True)
        np.testing.assert_array_equal(zeroed, 0.0)

    def test_release_of_foreign_buffer_raises(self):
        pool = WorkspacePool()
        with pytest.raises(ParameterError):
            pool.release(np.zeros((2, 2)))

    def test_double_release_raises(self):
        pool = WorkspacePool()
        a = pool.borrow((2, 2))
        pool.release(a)
        with pytest.raises(ParameterError):
            pool.release(a)

    def test_lease_releases_on_error(self):
        pool = WorkspacePool()
        with pytest.raises(RuntimeError):
            with pool.lease((3, 3)):
                raise RuntimeError("task failed")
        assert pool.outstanding_words == 0
        assert pool.pooled_words == 9

    def test_word_accounting_and_high_water(self):
        pool = WorkspacePool()
        a = pool.borrow((10, 10))
        b = pool.borrow((5, 5))
        assert pool.outstanding_words == 125
        assert pool.high_water_words == 125
        pool.release(b)
        assert pool.outstanding_words == 100
        assert pool.pooled_words == 25
        assert pool.high_water_words == 125  # monotone
        pool.release(a)


class TestEviction:
    def test_oldest_released_shape_evicted_first(self):
        pool = WorkspacePool(capacity_words=150)
        a = pool.borrow((10, 10))  # 100 words
        b = pool.borrow((6, 10))  # 60 words
        pool.release(a)  # free=100, fits
        assert pool.evictions == 0
        pool.release(b)  # free=160 > 150: evict oldest (a's shape)
        assert pool.evictions == 1
        assert pool.pooled_words == 60
        # The survivor is b's shape: borrowing it hits, a's shape misses.
        hit = pool.borrow((6, 10))
        assert pool.hits == 1
        miss = pool.borrow((10, 10))
        assert pool.misses == 3
        pool.release(hit)
        pool.release(miss)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ParameterError):
            WorkspacePool(capacity_words=0)

    def test_observe_counters_emitted(self):
        pool = WorkspacePool(capacity_words=10)
        with tracing() as session:
            a = pool.borrow((4,))
            pool.release(a)
            b = pool.borrow((4,))  # hit
            c = pool.borrow((8,))  # miss
            pool.release(b)  # free=4, fits
            pool.release(c)  # free=12 > 10: evicts until it fits (both lists)
        counters = session.metrics.counters()
        assert counters["workspace.miss"] == 2
        assert counters["workspace.hit"] == 1
        assert counters["workspace.evict"] == pool.evictions >= 1
        summary = session.metrics.histogram_summary("workspace.high_water_words")
        assert summary["count"] >= 1
        assert summary["max"] == float(pool.high_water_words)


class TestThreadSafety:
    def test_concurrent_borrow_release_stays_consistent(self):
        pool = WorkspacePool()

        def task(i):
            shape = (8, 4) if i % 2 else (4, 8)
            for _ in range(50):
                buf = pool.borrow(shape)
                buf[0, 0] = i
                pool.release(buf)
            return i

        results = parallel_map(task, range(8), threads=4)
        assert sorted(results) == list(range(8))
        assert pool.outstanding_words == 0
        assert pool.hits + pool.misses == 8 * 50
        # At most a handful of distinct buffers per shape were ever created.
        assert pool.misses <= 2 * 4 * 2  # shapes x max workers, generous


class TestDefaultPool:
    def test_reset_swaps_the_singleton(self):
        original = default_pool()
        try:
            fresh = reset_default_pool(capacity_words=1234)
            assert default_pool() is fresh
            assert fresh is not original
            assert fresh.capacity_words == 1234
        finally:
            restored = reset_default_pool()
            assert restored.capacity_words == DEFAULT_WORKSPACE_CAPACITY_WORDS
