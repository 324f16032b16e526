"""Contract tests for the shared thread executor of the threaded kernels.

The executor's promises are stronger than "runs concurrently": results come
back in task-index order regardless of completion order, thread-count
resolution is explicit-arg > ``REPRO_THREADS`` > 1, an explicit count that
is not an integer is rejected by every kernel and driver that takes one, and
errors propagate after all tasks settle — the properties the
bitwise-determinism claims of the blocked and distributed kernels rest on.
"""

import re
import threading
import time

import pytest

from repro.backend import parallel as backend_parallel
from repro.backend.parallel import (
    MAX_THREADS,
    THREADS_ENV_VAR,
    effective_cpu_count,
    parallel_map,
    resolve_threads,
)
from repro.core.blocked_mttkrp import blocked_mttkrp
from repro.cp.als import cp_als
from repro.cp.parallel_als import parallel_cp_als
from repro.exceptions import ParameterError
from repro.parallel.general import GeneralKernel, general_mttkrp
from repro.parallel.stationary import StationaryKernel, stationary_mttkrp
from repro.tensor.random import random_factors, random_tensor


class TestResolveThreads:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "7")
        assert resolve_threads(3) == 3

    def test_env_var_consulted_when_unset(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "5")
        assert resolve_threads(None) == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        assert resolve_threads(None) == 1
        monkeypatch.setenv(THREADS_ENV_VAR, "  ")
        assert resolve_threads(None) == 1

    def test_garbage_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "many")
        with pytest.raises(ParameterError):
            resolve_threads(None)

    @pytest.mark.parametrize("bad", [0, -1, MAX_THREADS + 1])
    def test_out_of_range_raises(self, bad):
        with pytest.raises(ParameterError):
            resolve_threads(bad)

    def test_oversubscription_is_legal(self):
        """More threads than cores is allowed — the cost model judges value."""
        assert resolve_threads(MAX_THREADS) == MAX_THREADS

    def test_effective_cpu_count_positive(self):
        assert effective_cpu_count() >= 1


_SHAPE = (4, 6, 5)
_TENSOR = random_tensor(_SHAPE, seed=0)
_FACTORS = random_factors(_SHAPE, 2, seed=1)

#: Every kernel and driver that takes ``threads=``, run on a small problem
#: whose tiling and grids would otherwise succeed.
THREADED_ENTRY_POINTS = {
    "cp_als": lambda t: cp_als(_TENSOR, 2, n_iter_max=1, threads=t),
    "parallel_cp_als": lambda t: parallel_cp_als(_TENSOR, 2, 2, n_iter_max=1, threads=t),
    "blocked_mttkrp": lambda t: blocked_mttkrp(_TENSOR, _FACTORS, 0, tiles=2, threads=t),
    "stationary_mttkrp": lambda t: stationary_mttkrp(_TENSOR, _FACTORS, 0, (2, 1, 1), threads=t),
    "general_mttkrp": lambda t: general_mttkrp(_TENSOR, _FACTORS, 0, (1, 2, 1, 1), threads=t),
    "StationaryKernel": lambda t: StationaryKernel((2, 1, 1), threads=t).mttkrp(
        _TENSOR, _FACTORS, 0
    ),
    "GeneralKernel": lambda t: GeneralKernel((1, 2, 1, 1), threads=t).mttkrp(
        _TENSOR, _FACTORS, 0
    ),
}


@pytest.mark.parametrize("entry", sorted(THREADED_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [2.7, True, "3", 0.5], ids=repr)
def test_non_integer_thread_count_rejected(entry, bad):
    """No truncation, no bool-as-int, no string parse: the value is named as given."""
    with pytest.raises(ParameterError, match=re.escape(repr(bad))):
        THREADED_ENTRY_POINTS[entry](bad)


class TestParallelMap:
    def test_results_in_task_index_order(self):
        """Fast-finishing late tasks must not reorder the results."""

        def work(i):
            time.sleep(0.01 * (5 - i))  # task 0 finishes last
            return i * i

        assert parallel_map(work, range(6), threads=4) == [i * i for i in range(6)]

    def test_serial_and_threaded_agree(self):
        items = list(range(20))
        serial = parallel_map(lambda i: i + 1, items, threads=1)
        threaded = parallel_map(lambda i: i + 1, items, threads=3)
        assert serial == threaded == [i + 1 for i in items]

    def test_actually_uses_worker_threads(self):
        names = parallel_map(
            lambda _: threading.current_thread().name, range(8), threads=2
        )
        assert any(name.startswith("repro-chunk-") for name in names)

    def test_inline_when_serial_or_single_item(self):
        main = threading.current_thread().name
        assert parallel_map(
            lambda _: threading.current_thread().name, range(4), threads=1
        ) == [main] * 4
        assert parallel_map(
            lambda _: threading.current_thread().name, [0], threads=8
        ) == [main]

    def test_empty_items(self):
        assert parallel_map(lambda i: i, [], threads=4) == []

    def test_first_exception_propagates_after_all_settle(self):
        settled = []

        def work(i):
            settled.append(i)
            if i == 1:
                raise ValueError("boom-1")
            if i == 3:
                raise ValueError("boom-3")
            return i

        with pytest.raises(ValueError, match="boom-1"):
            parallel_map(work, range(5), threads=2)
        assert sorted(settled) == [0, 1, 2, 3, 4]

    def test_accepts_range_and_generators(self):
        assert parallel_map(lambda i: -i, (i for i in range(3)), threads=2) == [0, -1, -2]

    def test_one_pool_per_thread_count(self, monkeypatch):
        """Calls with fewer tasks than threads reuse the thread count's pool."""
        monkeypatch.setattr(backend_parallel, "_EXECUTORS", {})
        try:
            for n_items in (2, 3, 4):
                results = parallel_map(lambda i: i * i, range(n_items), threads=4)
                assert results == [i * i for i in range(n_items)]
            assert len(backend_parallel._EXECUTORS) <= 1
        finally:
            for pool in backend_parallel._EXECUTORS.values():
                pool.shutdown(wait=True)
