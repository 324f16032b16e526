"""Unit tests for the MTTKRP kernels (reference, einsum, local step, matmul baseline)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.kernels import _PATH_CACHE, mttkrp, mttkrp_flops, local_mttkrp
from repro.core.matmul_baseline import mttkrp_via_matmul
from repro.core.reference import mttkrp_reference
from repro.exceptions import ParameterError, ShapeError
from repro.observe import tracing
from repro.sequential.blocked import sequential_blocked_mttkrp
from repro.sequential.unblocked import sequential_unblocked_mttkrp
from repro.tensor.dense import DenseTensor
from repro.tensor.khatri_rao import khatri_rao_excluding
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.matricization import unfold
from repro.tensor.random import random_factors, random_tensor


def problem(shape, rank, seed=0):
    tensor = random_tensor(shape, seed=seed)
    factors = random_factors(shape, rank, seed=seed + 1)
    return tensor, factors


class TestKernelAgreement:
    @pytest.mark.parametrize("shape", [(4, 5), (3, 4, 5), (2, 3, 4, 3), (2, 2, 2, 2, 2)])
    def test_einsum_matches_reference(self, shape):
        tensor, factors = problem(shape, 3)
        for mode in range(len(shape)):
            assert np.allclose(mttkrp(tensor, factors, mode), mttkrp_reference(tensor, factors, mode))

    @pytest.mark.parametrize("shape", [(4, 5), (3, 4, 5), (2, 3, 4, 3)])
    def test_matmul_matches_reference(self, shape):
        tensor, factors = problem(shape, 3, seed=5)
        for mode in range(len(shape)):
            assert np.allclose(
                mttkrp_via_matmul(tensor, factors, mode), mttkrp_reference(tensor, factors, mode)
            )

    def test_explicit_unfolding_formula(self):
        tensor, factors = problem((3, 4, 5), 2, seed=7)
        for mode in range(3):
            expected = unfold(tensor.data, mode) @ khatri_rao_excluding(factors, mode)
            assert np.allclose(mttkrp(tensor, factors, mode), expected)

    def test_output_shape(self):
        tensor, factors = problem((6, 4, 5), 3)
        assert mttkrp(tensor, factors, 0).shape == (6, 3)
        assert mttkrp(tensor, factors, 2).shape == (5, 3)

    def test_local_mttkrp_matches_einsum(self):
        tensor, factors = problem((3, 4, 5), 2)
        assert np.allclose(local_mttkrp(tensor.data, factors, 1), mttkrp(tensor, factors, 1))


def _dispatch_counts(session):
    return tuple(session.metrics.counter(f"dense_dispatch.{path}") for path in ("gemm", "einsum"))


class TestLocalMttkrp:
    """The local step of Algorithms 2-4 is ``dense_mttkrp``; ``mttkrp`` is the reference."""

    def test_copying_block_runs_one_gemm_without_a_copy(self):
        """Mode 0 of a 40×20×20 block at R=5 first contracts mode 1.

        einsum runs that step on a transposed copy of the block (a
        ``tracemalloc`` peak of about 1.3× the block); the GEMM of the free
        unfolding allocates well below one block.
        """
        tensor, factors = problem((40, 20, 20), 5, seed=2)
        block = tensor.data
        expected = mttkrp(block, factors, 0)
        local_mttkrp(block, factors, 0)  # plan and cache the path outside the trace
        with tracing() as session:
            tracemalloc.start()
            try:
                result = local_mttkrp(block, factors, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert _dispatch_counts(session) == (1, 0)
        assert np.linalg.norm(result - expected) <= 1e-12 * np.linalg.norm(expected)
        assert peak < block.nbytes

    def test_fault_frontier_block_keeps_einsum_bytes(self):
        """The fault sweep's 8×8×6 input on grid 2×2×1 gives 4×4×6 blocks at R=3.

        Their einsum paths copy nothing in any mode (modes 0 and 1 first
        contract the trailing mode, mode 2 the leading one), so the local
        step returns ``mttkrp``'s bytes and ``fault_sweep_frontier.json``
        keeps its fits.
        """
        tensor, factors = problem((4, 4, 6), 3, seed=3)
        for mode in range(3):
            with tracing() as session:
                result = local_mttkrp(tensor.data, factors, mode)
            assert _dispatch_counts(session) == (0, 1)
            assert result.tobytes() == mttkrp(tensor, factors, mode).tobytes()


class TestKernelProperties:
    def test_linearity_in_tensor(self):
        shape = (3, 4, 5)
        t1, factors = problem(shape, 2, seed=1)
        t2, _ = problem(shape, 2, seed=2)
        combined = DenseTensor(2.0 * t1.data + 3.0 * t2.data)
        expected = 2.0 * mttkrp(t1, factors, 1) + 3.0 * mttkrp(t2, factors, 1)
        assert np.allclose(mttkrp(combined, factors, 1), expected)

    def test_kruskal_tensor_recovers_gram_structure(self):
        """MTTKRP of a Kruskal tensor equals A_n * hadamard of Grams (classic identity)."""
        shape = (4, 5, 6)
        rank = 3
        factors = random_factors(shape, rank, seed=3)
        kt = KruskalTensor(factors)
        dense = kt.full()
        for mode in range(3):
            grams = [factors[k].T @ factors[k] for k in range(3) if k != mode]
            expected = factors[mode] @ (grams[0] * grams[1])
            assert np.allclose(mttkrp(dense, factors, mode), expected)

    def test_rank_one_factors_give_weighted_fiber_sums(self):
        shape = (3, 4)
        tensor, _ = problem(shape, 1, seed=4)
        ones = [np.ones((d, 1)) for d in shape]
        # with all-ones factors, MTTKRP reduces to row sums of the unfolding
        result = mttkrp(tensor, ones, 0)
        assert np.allclose(result[:, 0], tensor.data.sum(axis=1))

    def test_accepts_raw_arrays_and_dense_tensors(self):
        tensor, factors = problem((3, 4, 5), 2)
        a = mttkrp(tensor, factors, 0)
        b = mttkrp(tensor.data, factors, 0)
        assert np.allclose(a, b)

    def test_none_at_output_mode_allowed(self):
        tensor, factors = problem((3, 4, 5), 2)
        factors = list(factors)
        factors[1] = None
        assert mttkrp(tensor, factors, 1).shape == (4, 2)


class TestKernelErrors:
    def test_all_none_factors(self):
        tensor, _ = problem((3, 4), 2)
        with pytest.raises(ValueError):
            mttkrp(tensor, [None, None], 0)

    def test_wrong_factor_rows(self):
        tensor, factors = problem((3, 4, 5), 2)
        factors = list(factors)
        factors[0] = np.zeros((7, 2))
        with pytest.raises(ShapeError):
            mttkrp(tensor, factors, 1)

    def test_inconsistent_rank(self):
        tensor, factors = problem((3, 4, 5), 2)
        factors = list(factors)
        factors[2] = np.zeros((5, 3))
        with pytest.raises(ShapeError):
            mttkrp(tensor, factors, 1)

    def test_reference_errors_on_missing_factors(self):
        tensor, _ = problem((3, 4), 2)
        with pytest.raises(ValueError):
            mttkrp_reference(tensor, [None, None], 0)

    @pytest.mark.parametrize(
        "kernel",
        [
            mttkrp_reference,
            mttkrp_via_matmul,
            sequential_unblocked_mttkrp,
            lambda tensor, factors, mode: sequential_blocked_mttkrp(
                tensor, factors, mode, block=2
            ),
        ],
        ids=["reference", "matmul", "unblocked", "blocked"],
    )
    def test_rank_inference_error_is_shared(self, kernel):
        """Every entry point infers the rank through ``infer_rank``."""
        tensor, _ = problem((3, 4, 5), 2)
        with pytest.raises(ParameterError, match="at least one input factor matrix"):
            kernel(tensor, [None, None, None], 1)


class TestFlopCounts:
    def test_atomic_count(self):
        assert mttkrp_flops((4, 5, 6), 3) == 3 * 120 * 3

    def test_factored_count(self):
        assert mttkrp_flops((4, 5, 6), 3, atomic=False) == 2 * 120 * 3

    def test_scales_linearly_in_rank(self):
        assert mttkrp_flops((4, 4), 8) == 2 * mttkrp_flops((4, 4), 4)


def _float64_key(shape, mode, rank, n_operands):
    """The cache key of an all-float64 MTTKRP call."""
    return ((shape, mode, rank), ("float64",) * n_operands)


class TestContractionPathCache:
    def test_path_cached_per_shape_mode_rank(self):
        _PATH_CACHE.clear()
        tensor, factors = problem((4, 5, 6), 3, seed=11)
        first = mttkrp(tensor, factors, 1)
        assert _float64_key((4, 5, 6), 1, 3, 3) in _PATH_CACHE
        entries = len(_PATH_CACHE)
        # same configuration: the cached path is reused, not recomputed
        second = mttkrp(tensor, factors, 1)
        assert len(_PATH_CACHE) == entries
        assert np.array_equal(first, second)
        # a different mode is a different einsum: new entry, same results
        mttkrp(tensor, factors, 2)
        assert _float64_key((4, 5, 6), 2, 3, 3) in _PATH_CACHE

    def test_dtype_is_part_of_the_key(self):
        """float64 and float32 calls over the same shapes get distinct entries.

        Regression test: the original key was ``(shape, mode, rank)`` only, so
        a path planned for float64 operands was served to float32 calls (and
        vice versa) even though einsum's intermediate-size tradeoffs differ by
        itemsize.
        """
        _PATH_CACHE.clear()
        tensor, factors = problem((4, 5, 6), 3, seed=21)
        wide = mttkrp(tensor, factors, 1)
        assert len(_PATH_CACHE) == 1
        narrow = mttkrp(
            np.asarray(tensor.data, dtype=np.float32),
            [f.astype(np.float32) for f in factors],
            1,
        )
        assert len(_PATH_CACHE) == 2
        key64 = _float64_key((4, 5, 6), 1, 3, 3)
        key32 = (((4, 5, 6), 1, 3), ("float32",) * 3)
        assert key64 in _PATH_CACHE and key32 in _PATH_CACHE
        assert np.allclose(wide, narrow, atol=1e-4)

    def test_cached_path_matches_reference(self):
        _PATH_CACHE.clear()
        tensor, factors = problem((3, 4, 5), 2, seed=12)
        for mode in range(3):
            for _ in range(2):  # second pass exercises the cached path
                assert np.allclose(
                    mttkrp(tensor, factors, mode), mttkrp_reference(tensor, factors, mode)
                )

    def test_lru_eviction_keeps_hot_entry(self):
        """Overflow evicts the oldest entry, not the whole cache.

        Regression test for the original ``.clear()`` eviction: a hot
        steady-state key, re-touched between cold insertions, must survive
        ``_PATH_CACHE_MAX_ENTRIES`` insertions of cold one-off keys.
        """
        from repro.core.kernels import _PATH_CACHE_MAX_ENTRIES, _contraction_path

        _PATH_CACHE.clear()
        tensor, factors = problem((4, 5, 6), 3, seed=13)
        hot = mttkrp(tensor, factors, 0)
        hot_key = _float64_key((4, 5, 6), 0, 3, 3)
        assert hot_key in _PATH_CACHE
        operands = (np.zeros((2, 3)), np.zeros((3, 2)))
        for i in range(_PATH_CACHE_MAX_ENTRIES):
            # re-touch the hot path, then insert one cold key
            assert np.array_equal(mttkrp(tensor, factors, 0), hot)
            _contraction_path(("cold", i), "ab,bc->ac", operands)
        assert hot_key in _PATH_CACHE
        assert len(_PATH_CACHE) <= _PATH_CACHE_MAX_ENTRIES
        # the earliest cold keys were evicted one at a time, not wholesale
        assert ("cold", 0) not in _PATH_CACHE
        assert ("cold", _PATH_CACHE_MAX_ENTRIES - 1) in _PATH_CACHE
        _PATH_CACHE.clear()

    def test_concurrent_access_is_safe_and_correct(self):
        """Hammer the cache from worker threads: no corruption, right answers.

        Regression test for the unlocked ``OrderedDict``: concurrent
        ``move_to_end``/insert/evict during threaded chunk execution could
        corrupt the dict or lose entries mid-iteration.  Every thread mixes
        hot lookups (move-to-end), cold insertions (evict pressure), and
        real MTTKRPs whose results must still match the serial reference.
        """
        from repro.backend.parallel import parallel_map
        from repro.core.kernels import _PATH_CACHE_MAX_ENTRIES, _contraction_path

        _PATH_CACHE.clear()
        tensor, factors = problem((6, 5, 4), 3, seed=21)
        expected = [mttkrp(tensor, factors, mode) for mode in range(3)]
        operands = (np.zeros((2, 3)), np.zeros((3, 2)))

        def hammer(worker):
            for i in range(120):
                mode = (worker + i) % 3
                result = mttkrp(tensor, factors, mode)
                assert result.tobytes() == expected[mode].tobytes()
                _contraction_path(("cold", worker, i), "ab,bc->ac", operands)
            return worker

        assert sorted(parallel_map(hammer, range(6), threads=6)) == list(range(6))
        assert len(_PATH_CACHE) <= _PATH_CACHE_MAX_ENTRIES
        for mode in range(3):
            # Re-planning after any eviction still yields the right answer.
            assert np.array_equal(mttkrp(tensor, factors, mode), expected[mode])
        _PATH_CACHE.clear()
