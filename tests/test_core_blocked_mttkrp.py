"""Parity, fallback, threading, memory and dispatch tests for the dense MTTKRPs.

The load-bearing contract: for *every* tiling — including tiles of 1, tiles
covering the tensor, and every output mode — the blocked kernel agrees with
the einsum kernel.  The parity sweep runs on integer-valued float64 data,
where every partial sum is an exactly representable integer, so
reassociating the per-row sums over non-output tiles cannot change a bit and
the comparison is *exact* (``atol=0``), not approximate.  Covering tiles
must dispatch to the einsum path verbatim (bitwise on arbitrary real data),
threads must never change a bit (tasks own disjoint output rows), and the
temporaries must scale with a tile, not the tensor.  ``dense_mttkrp`` (the
local step of the blocked and parallel algorithms) must run one GEMM where
einsum's planned path copies the tensor and the GEMM's guard holds, and
return the einsum kernel's bytes in every other case.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend.parallel import THREADS_ENV_VAR
from repro.core.blocked_mttkrp import blocked_mttkrp, dense_mttkrp
from repro.core.kernels import _mttkrp_path, _path_copies_tensor, mttkrp
from repro.exceptions import ParameterError
from repro.observe import tracing
from repro.tensor.random import random_factors


def _integer_problem(shape, rank, seed, *, noncontiguous=False):
    """Integer-valued float64 tensor + factors: sums are exact, order-free."""
    rng = np.random.default_rng(seed)
    data = rng.integers(-2, 3, size=shape).astype(np.float64)
    if noncontiguous:
        # Factors as row- and column-strided views of larger buffers: the
        # kernel must not assume contiguity when slicing row tiles.
        factors = [
            rng.integers(-2, 3, size=(2 * dim, 2 * rank)).astype(np.float64)[::2, ::2]
            for dim in shape
        ]
        assert all(not f.flags["C_CONTIGUOUS"] for f in factors if f.size > 1)
    else:
        factors = [
            rng.integers(-2, 3, size=(dim, rank)).astype(np.float64) for dim in shape
        ]
    return data, factors


def _real_problem(shape, rank, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    return data, random_factors(shape, rank, seed=seed + 1)


class TestBlockedEqualsEinsum:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=60)
    @given(
        tile=st.integers(min_value=1, max_value=9),
        mode=st.integers(min_value=0, max_value=2),
        rank=st.sampled_from([1, 2, 5]),
        seed=st.integers(min_value=0, max_value=6),
        noncontiguous=st.booleans(),
    )
    def test_any_tiling_matches_einsum_exactly(self, tile, mode, rank, seed, noncontiguous):
        """Blocked == einsum with atol=0 over the (tile, mode, R) lattice.

        Tile sizes deliberately cross the extents (max extent 8 < 9) so the
        covering-tiles fallback region is drawn too, and R=1 exercises the
        degenerate rank-one KRP.
        """
        shape = (7, 8, 6)
        data, factors = _integer_problem(shape, rank, seed, noncontiguous=noncontiguous)
        expected = mttkrp(data, factors, mode)
        actual = blocked_mttkrp(data, factors, mode, tiles=tile)
        np.testing.assert_array_equal(actual, expected)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=30)
    @given(
        n_modes=st.sampled_from([2, 3, 4]),
        tiles_seed=st.integers(min_value=0, max_value=100),
        seed=st.integers(min_value=0, max_value=4),
    )
    def test_per_mode_tiles_every_n_every_mode(self, n_modes, tiles_seed, seed):
        """Per-mode tile vectors across 2/3/4-way tensors, every output mode."""
        rng = np.random.default_rng(tiles_seed)
        shape = tuple(int(d) for d in rng.integers(2, 7, size=n_modes))
        tiles = tuple(int(t) for t in rng.integers(1, 8, size=n_modes))
        data, factors = _integer_problem(shape, 3, seed)
        for mode in range(n_modes):
            expected = mttkrp(data, factors, mode)
            actual = blocked_mttkrp(data, factors, mode, tiles=tiles)
            np.testing.assert_array_equal(actual, expected)

    def test_length_one_modes(self):
        """Extent-1 modes (in and out of the output position) tile correctly."""
        for shape, mode in [((1, 6, 5), 0), ((6, 1, 5), 1), ((6, 1, 5), 0), ((4, 1, 1), 0)]:
            data, factors = _integer_problem(shape, 2, seed=11)
            expected = mttkrp(data, factors, mode)
            actual = blocked_mttkrp(data, factors, mode, tiles=2)
            np.testing.assert_array_equal(actual, expected)

    def test_two_way_tensor_is_a_tiled_matmul(self):
        """N=2 has an empty KRP growth loop — the tile is the factor block."""
        data, factors = _integer_problem((9, 7), 4, seed=5)
        for mode in (0, 1):
            np.testing.assert_array_equal(
                blocked_mttkrp(data, factors, mode, tiles=3),
                mttkrp(data, factors, mode),
            )

    def test_default_tiles_match_on_real_data(self):
        """Machine-model default tiles agree to reassociation tolerance."""
        data, factors = _real_problem((30, 31, 29), 8, seed=2)
        expected = mttkrp(data, factors, 1)
        actual = blocked_mttkrp(data, factors, 1, memory_words=4096)
        np.testing.assert_allclose(actual, expected, atol=1e-12, rtol=0.0)


class TestFallbackAndValidation:
    def test_covering_tiles_fall_back_bitwise(self):
        """One covering tile dispatches to einsum verbatim — bitwise equal."""
        data, factors = _real_problem((8, 7, 6), 5, seed=9)
        with tracing() as session:
            blocked = blocked_mttkrp(data, factors, 2, tiles=(8, 7, 6))
        reference = mttkrp(data, factors, 2)
        assert blocked.tobytes() == reference.tobytes()
        assert session.metrics.counter("blocked_mttkrp.fallback") == 1
        assert session.metrics.counter("blocked_mttkrp.tiles") == 0

    def test_oversized_tiles_clamp_to_fallback(self):
        data, factors = _real_problem((5, 4, 3), 2, seed=1)
        blocked = blocked_mttkrp(data, factors, 0, tiles=1000)
        assert blocked.tobytes() == mttkrp(data, factors, 0).tobytes()

    def test_tile_vector_length_mismatch_raises(self):
        data, factors = _integer_problem((5, 4, 3), 2, seed=0)
        with pytest.raises(ParameterError):
            blocked_mttkrp(data, factors, 0, tiles=(2, 2))

    def test_nonpositive_tile_raises(self):
        data, factors = _integer_problem((5, 4, 3), 2, seed=0)
        with pytest.raises(ParameterError):
            blocked_mttkrp(data, factors, 0, tiles=0)

    @pytest.mark.parametrize(
        "tiles",
        [
            pytest.param(True, id="bool"),
            pytest.param((2, 2.5, 2), id="fractional-entry"),
            pytest.param(2.7, id="fractional-scalar"),
        ],
    )
    def test_non_integer_tiles_raise(self, tiles):
        """Every tile size must be a positive int: no bool, no truncation."""
        data, factors = _integer_problem((6, 5, 4), 2, seed=0)
        with pytest.raises(ParameterError, match="tile size"):
            blocked_mttkrp(data, factors, 0, tiles=tiles)

    def test_vector_tensor_raises(self):
        with pytest.raises(ParameterError):
            blocked_mttkrp(np.arange(4.0), [np.ones((4, 2))], 0)


class TestThreadsBitwise:
    def test_threads_never_change_a_bit(self):
        """Output-row tiles are disjoint tasks: any thread count is bitwise."""
        data, factors = _real_problem((24, 23, 22), 6, seed=4)
        serial = blocked_mttkrp(data, factors, 0, tiles=5, threads=1)
        for threads in (2, 3, 7):
            threaded = blocked_mttkrp(data, factors, 0, tiles=5, threads=threads)
            assert threaded.tobytes() == serial.tobytes()

    def test_thread_counter_recorded(self):
        data, factors = _real_problem((12, 11, 10), 3, seed=8)
        with tracing() as session:
            blocked_mttkrp(data, factors, 0, tiles=4, threads=3)
        assert session.metrics.counter("blocked_mttkrp.threads") == 3
        # 3 output-row tiles x (3 x 3) non-output combos
        assert session.metrics.counter("blocked_mttkrp.tiles") == 3 * 9

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_threads_bitwise_with_default_tiles(self, mode):
        """The machine model's tiles for a small budget split every mode."""
        data, factors = _real_problem((24, 23, 22), 6, seed=5)
        with tracing() as session:
            serial = blocked_mttkrp(data, factors, mode, memory_words=1 << 12, threads=1)
            threaded = blocked_mttkrp(data, factors, mode, memory_words=1 << 12, threads=3)
        assert threaded.tobytes() == serial.tobytes()
        assert session.metrics.counter("blocked_mttkrp.fallback") == 0

    def test_env_var_resolves_thread_count(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        data, factors = _real_problem((12, 11, 10), 3, seed=8)
        with tracing() as session:
            from_env = blocked_mttkrp(data, factors, 1, tiles=4)
        assert session.metrics.counter("blocked_mttkrp.threads") == 3
        serial = blocked_mttkrp(data, factors, 1, tiles=4, threads=1)
        assert from_env.tobytes() == serial.tobytes()


class TestPeakMemory:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_peak_is_bounded_by_the_tile_not_the_tensor(self, mode):
        """A tile-row task allocates tile-sized buffers once; nothing scales
        with the tensor.  The einsum reference allocates at least the full
        Khatri-Rao product here (8000 x 4 words or more, over twice the bound)."""
        data, factors = _real_problem((120, 100, 80), 4, seed=6)
        blocked_mttkrp(data, factors, mode, tiles=8, threads=1)  # warm numpy's caches
        tracemalloc.start()
        try:
            result = blocked_mttkrp(data, factors, mode, tiles=8, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - result.nbytes < data.nbytes // 64


class TestDenseDispatch:
    """``dense_mttkrp``: one GEMM where einsum's path copies the tensor, else einsum bytes.

    The path copies when its first step contracts the tensor with the factor
    of a middle mode.  On the cubic and 4-way shapes below that happens in
    mode 0 only, but not on every shape: 4×4×6 at R=3 first contracts the
    trailing mode in mode 0 and copies nothing, and 3×8×7 at R=4 first
    contracts mode 1 in mode 2, where the GEMM of the trailing mode runs.
    """

    @staticmethod
    def _dispatched(data, factors, mode):
        """The result and the (gemm, einsum) dispatch counts of one call."""
        with tracing() as session:
            result = dense_mttkrp(data, factors, mode)
        counts = tuple(
            session.metrics.counter(f"dense_dispatch.{path}") for path in ("gemm", "einsum")
        )
        return result, counts

    @pytest.mark.parametrize(
        "shape,rank,mode",
        [
            pytest.param((10, 9, 8), 4, 0, id="3way"),
            pytest.param((6, 5, 4, 3), 3, 0, id="4way"),
            pytest.param((3, 8, 7), 4, 2, id="trailing-mode"),
        ],
    )
    def test_copying_path_is_one_gemm(self, shape, rank, mode):
        data, factors = _real_problem(shape, rank, seed=3)
        result, counts = self._dispatched(data, factors, mode)
        assert counts == (1, 0)
        expected = mttkrp(data, factors, mode)
        assert result.shape == expected.shape
        assert result.flags.c_contiguous
        assert np.linalg.norm(result - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "shape,rank,mode",
        [
            ((10, 9, 8), 4, 1),
            ((10, 9, 8), 4, 2),
            ((6, 5, 4, 3), 3, 1),
            ((6, 5, 4, 3), 3, 2),
            ((6, 5, 4, 3), 3, 3),
            ((32, 31, 30), 8, 2),
            ((9, 7), 2, 1),
            ((9, 7), 2, 0),
            ((4, 4, 6), 3, 0),
        ],
    )
    def test_copy_free_path_is_einsum_bytes(self, shape, rank, mode):
        data, factors = _real_problem(shape, rank, seed=4)
        result, counts = self._dispatched(data, factors, mode)
        assert counts == (0, 1)
        assert result.tobytes() == mttkrp(data, factors, mode).tobytes()

    @pytest.mark.parametrize(
        "shape,rank",
        [
            pytest.param((300, 300, 300), 16, id="cubic-300"),
            pytest.param((320, 40, 40, 24), 32, id="lopsided-4way"),
            pytest.param((240, 240, 240), 16, id="parallel-p4"),
            pytest.param((240, 120, 120), 16, id="parallel-p4-block"),
        ],
    )
    def test_benchmark_inputs_take_the_gemm_in_mode0_only(self, shape, rank):
        """Read from shape, mode and rank alone: no input is allocated.

        Zero-strided stand-ins plan the same einsum path as the arrays, and
        every extent is at least ``R``, so mode 0 meets the GEMM's guard.
        If a numpy release plans these paths differently, this fails before
        the sweep benchmark would.
        """
        copies = []
        for mode in range(len(shape)):
            operands = [np.broadcast_to(0.0, shape)] + [
                np.broadcast_to(0.0, (shape[k], rank)) for k in range(len(shape)) if k != mode
            ]
            path = _mttkrp_path(operands, mode, rank)
            copies.append(_path_copies_tensor(shape, mode, path))
        assert copies == [True] + [False] * (len(shape) - 1)
        assert rank <= min(shape[0], math.prod(shape[1:]))

    @pytest.mark.parametrize(
        "shape,rank,order",
        [
            pytest.param((10, 9, 8), 4, "F", id="fortran-order"),
            pytest.param((3, 8, 7), 4, "C", id="rank-above-mode0-extent"),
            pytest.param((20, 2, 3), 8, "C", id="rank-above-other-extents"),
        ],
    )
    def test_guard_falls_back_to_einsum_bytes(self, shape, rank, order):
        data, factors = _real_problem(shape, rank, seed=5)
        data = np.asarray(data, order=order)
        result, counts = self._dispatched(data, factors, 0)
        assert counts == (0, 1)
        assert result.tobytes() == mttkrp(data, factors, 0).tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_int_and_float32_tensors_give_float64(self, dtype):
        rng = np.random.default_rng(6)
        data = rng.integers(-3, 4, size=(10, 9, 8)).astype(dtype)
        factors = random_factors(data.shape, 4, seed=7)
        for mode in range(data.ndim):
            result = dense_mttkrp(data, factors, mode)
            expected = mttkrp(data, factors, mode)
            assert result.dtype == expected.dtype == np.float64
            assert np.linalg.norm(result - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "mode,factor_shapes",
        [
            pytest.param(3, [(10, 4), (9, 4), (8, 4)], id="mode-out-of-range"),
            pytest.param(0, [(10, 4), (9, 4), (7, 4)], id="factor-rows"),
            pytest.param(0, [(10, 4), (9, 4), (8, 3)], id="factor-rank"),
            pytest.param(0, [None, None, None], id="no-input-factor"),
        ],
    )
    def test_rejects_what_mttkrp_rejects(self, mode, factor_shapes):
        data = np.ones((10, 9, 8))
        factors = [None if s is None else np.ones(s) for s in factor_shapes]
        with pytest.raises(ValueError) as einsum_error:
            mttkrp(data, factors, mode)
        with pytest.raises(einsum_error.type) as auto_error:
            dense_mttkrp(data, factors, mode)
        assert str(auto_error.value) == str(einsum_error.value)
