"""Property and regression tests for the chunked sparse MTTKRP kernel.

The load-bearing invariant: for *every* chunking ``(nzchunk, rchunk)`` —
including degenerate ones (chunks larger than the problem, single-column
rank chunks, empty tensors) — the chunked kernel agrees with the single-pass
reference to tight tolerance.  A tracemalloc test pins the acceptance claim that peak temporary
memory scales with ``nzchunk * rchunk``, not ``nnz * R``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.observe import tracing
from repro.tensor.random import random_factors
from repro.tensor.sparse import (
    SparseTensor,
    _scatter_add_rows,
    sparse_mttkrp,
    sparse_mttkrp_unchunked,
)


def _problem(shape, nnz, rank, seed, *, with_duplicates=False):
    rng = np.random.default_rng(seed)
    coords = np.stack([rng.integers(0, dim, size=nnz) for dim in shape], axis=1)
    if with_duplicates and nnz > 1:
        coords[nnz // 2] = coords[0]
    values = rng.standard_normal(nnz)
    tensor = SparseTensor(shape=shape, coords=coords, values=values)
    factors = random_factors(shape, rank, seed=seed + 1)
    return tensor, factors


class TestChunkedEqualsUnchunked:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=40)
    @given(
        nzchunk=st.integers(min_value=1, max_value=300),
        rchunk=st.integers(min_value=1, max_value=12),
        mode=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=10),
    )
    def test_any_chunking_matches_reference(self, nzchunk, rchunk, mode, seed):
        """Chunked == unchunked over the whole (nzchunk, rchunk) lattice.

        The strategy ranges deliberately cross the problem size in both
        directions: nnz=200 < 300 and R=7 < 12, so chunk sizes larger than
        the problem (the bitwise-fallback region) are drawn too.
        """
        tensor, factors = _problem((9, 8, 7), 200, 7, seed, with_duplicates=True)
        expected = sparse_mttkrp_unchunked(tensor, factors, mode)
        actual = sparse_mttkrp(tensor, factors, mode, nzchunk=nzchunk, rchunk=rchunk)
        np.testing.assert_allclose(actual, expected, atol=1e-12, rtol=0.0)

    def test_covering_chunks_fall_back_bitwise(self):
        tensor, factors = _problem((6, 5, 4), 50, 3, seed=3)
        with tracing() as session:
            chunked = sparse_mttkrp(tensor, factors, 1, nzchunk=50, rchunk=3)
        reference = sparse_mttkrp_unchunked(tensor, factors, 1)
        # exact equality, not allclose: the fallback dispatches verbatim
        assert np.array_equal(chunked, reference)
        assert session.metrics.counters().get("sparse_mttkrp.fallback", 0) == 1

    def test_empty_tensor(self):
        tensor = SparseTensor(
            shape=(4, 5, 6), coords=np.empty((0, 3), dtype=int), values=[]
        )
        factors = random_factors((4, 5, 6), 3, seed=4)
        for nzchunk, rchunk in ((1, 1), (10, 2), (1000, 100)):
            out = sparse_mttkrp(tensor, factors, 0, nzchunk=nzchunk, rchunk=rchunk)
            assert out.shape == (4, 3) and np.all(out == 0.0)

    def test_single_column_factors(self):
        """R = 1 exercises rchunk == rank == 1 (one bincount per chunk)."""
        tensor, factors = _problem((7, 6, 5), 80, 1, seed=5)
        expected = sparse_mttkrp_unchunked(tensor, factors, 2)
        actual = sparse_mttkrp(tensor, factors, 2, nzchunk=16, rchunk=1)
        np.testing.assert_allclose(actual, expected, atol=1e-12, rtol=0.0)

    def test_duplicates_sum_within_and_across_chunks(self):
        """Duplicate coordinates land in the same output row even when the
        duplicates are split across nonzero chunks (regression for the
        SparseTensor duplicates-summed contract)."""
        coords = np.array([[1, 0, 2]] * 7 + [[0, 1, 1]])
        values = np.arange(1.0, 9.0)
        tensor = SparseTensor(shape=(3, 3, 3), coords=coords, values=values)
        factors = random_factors((3, 3, 3), 4, seed=6)
        expected = sparse_mttkrp_unchunked(tensor, factors, 0)
        # nzchunk=2 forces the seven duplicates across four different chunks
        actual = sparse_mttkrp(tensor, factors, 0, nzchunk=2, rchunk=3)
        np.testing.assert_allclose(actual, expected, atol=1e-12, rtol=0.0)

    def test_default_chunks_from_machine_model(self):
        """With no explicit chunk sizes the machine model's choice applies
        and still matches the reference."""
        tensor, factors = _problem((20, 20, 20), 500, 5, seed=7)
        for mode in range(3):
            np.testing.assert_allclose(
                sparse_mttkrp(tensor, factors, mode),
                sparse_mttkrp_unchunked(tensor, factors, mode),
                atol=1e-12,
                rtol=0.0,
            )

    def test_counts_chunks(self):
        tensor, factors = _problem((8, 8, 8), 100, 6, seed=8)
        with tracing() as session:
            sparse_mttkrp(tensor, factors, 0, nzchunk=30, rchunk=4)
        # ceil(100/30) * ceil(6/4) = 4 * 2
        assert session.metrics.counters()["sparse_mttkrp.chunks"] == 8

    @pytest.mark.parametrize("name", ["nzchunk", "rchunk"])
    @pytest.mark.parametrize("bad", [2.5, True, 0, "4"], ids=repr)
    def test_non_integer_chunk_rejected(self, name, bad):
        """No ``TypeError`` from ``range``, no bool run as 1: a ParameterError naming it."""
        tensor, factors = _problem((8, 8, 8), 100, 6, seed=8)
        with pytest.raises(ParameterError, match=name):
            sparse_mttkrp(tensor, factors, 0, **{name: bad})


class TestScatterAddRows:
    def test_sums_duplicates(self):
        out = np.zeros((3, 2))
        rows = np.array([0, 2, 0])
        block = np.array([[1.0, 10.0], [2.0, 20.0], [4.0, 40.0]])
        _scatter_add_rows(out, rows, block)
        expected = np.array([[5.0, 50.0], [0.0, 0.0], [2.0, 20.0]])
        assert np.array_equal(out, expected)

    def test_accepts_column_slice_view(self):
        full = np.zeros((4, 6))
        rows = np.array([1, 1, 3])
        block = np.ones((3, 2))
        _scatter_add_rows(full[:, 2:4], rows, block)
        assert full[1, 2] == 2.0 and full[3, 3] == 1.0
        assert np.all(full[:, :2] == 0.0) and np.all(full[:, 4:] == 0.0)


class TestPeakMemory:
    def test_chunked_peak_is_bounded_by_chunk_not_problem(self):
        """The acceptance claim: peak temporaries O(nzchunk * rchunk).

        The unchunked path materialises a dense (nnz, R) = 50k x 32
        contribution array (~12.8 MB); the chunked kernel with 4096 x 8
        blocks must stay an order of magnitude below that.
        """
        shape, nnz, rank = (64, 64, 64), 50_000, 32
        tensor, factors = _problem(shape, nnz, rank, seed=10)
        dense_temp_bytes = nnz * rank * 8

        tracemalloc.start()
        sparse_mttkrp_unchunked(tensor, factors, 0)
        _, unchunked_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        sparse_mttkrp(tensor, factors, 0, nzchunk=4096, rchunk=8)
        _, chunked_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert unchunked_peak >= dense_temp_bytes
        assert chunked_peak < dense_temp_bytes / 4
        assert chunked_peak < unchunked_peak / 4


class TestThreadedChunks:
    def test_threads_bitwise_equal_to_serial(self):
        """Any thread count reproduces the serial chunked result bit for bit.

        The threaded path scatter-adds each nonzero block into a zeroed
        partial and folds the partials left to right on the calling thread;
        NumPy's bincount sums a whole chunk before the single add and IEEE
        addition onto fresh zeros is exact, so no arithmetic reassociates.
        """
        tensor, factors = _problem((30, 29, 28), 5_000, 9, seed=12, with_duplicates=True)
        for mode in range(3):
            serial = sparse_mttkrp(tensor, factors, mode, nzchunk=512, rchunk=4, threads=1)
            for threads in (2, 3, 5, 8):
                threaded = sparse_mttkrp(
                    tensor, factors, mode, nzchunk=512, rchunk=4, threads=threads
                )
                assert threaded.tobytes() == serial.tobytes()

    def test_threads_bitwise_with_default_chunks(self):
        tensor, factors = _problem((25, 25, 25), 3_000, 6, seed=13)
        serial = sparse_mttkrp(tensor, factors, 1, threads=1)
        threaded = sparse_mttkrp(tensor, factors, 1, threads=4)
        assert threaded.tobytes() == serial.tobytes()

    def test_thread_and_chunk_counters(self):
        tensor, factors = _problem((8, 8, 8), 100, 6, seed=15)
        with tracing() as session:
            sparse_mttkrp(tensor, factors, 0, nzchunk=30, rchunk=4, threads=3)
        counters = session.metrics.counters()
        # ceil(100/30) * ceil(6/4) = 4 * 2 chunks, tallied from the caller.
        assert counters["sparse_mttkrp.chunks"] == 8
        assert counters["sparse_mttkrp.threads"] == 3

    def test_env_var_resolves_thread_count(self, monkeypatch):
        from repro.backend.parallel import THREADS_ENV_VAR

        tensor, factors = _problem((12, 11, 10), 400, 5, seed=16)
        serial = sparse_mttkrp(tensor, factors, 2, nzchunk=64, rchunk=2)
        monkeypatch.setenv(THREADS_ENV_VAR, "4")
        with tracing() as session:
            threaded = sparse_mttkrp(tensor, factors, 2, nzchunk=64, rchunk=2)
        assert threaded.tobytes() == serial.tobytes()
        assert session.metrics.counters()["sparse_mttkrp.threads"] == 4
