"""Unit tests for the random tensor / factor generators."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from repro.cp.als import cp_als
from repro.exceptions import ParameterError
from repro.observe import tracing
from repro.tensor.random import (
    noisy_low_rank_tensor,
    random_factors,
    random_kruskal_tensor,
    random_low_rank_tensor,
    random_tensor,
)


class TestRandomTensor:
    def test_shape_and_dtype(self):
        t = random_tensor((3, 4, 5), seed=0)
        assert t.shape == (3, 4, 5)
        assert np.issubdtype(t.dtype, np.floating)

    def test_seed_reproducibility(self):
        a = random_tensor((3, 4), seed=42).data
        b = random_tensor((3, 4), seed=42).data
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = random_tensor((3, 4), seed=1).data
        b = random_tensor((3, 4), seed=2).data
        assert not np.array_equal(a, b)

    def test_uniform_distribution_range(self):
        t = random_tensor((10, 10), seed=0, distribution="uniform").data
        assert t.min() >= 0.0 and t.max() < 1.0

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            random_tensor((2, 2), distribution="cauchy")

    def test_generator_argument(self):
        rng = np.random.default_rng(7)
        t = random_tensor((2, 2), seed=rng)
        assert t.shape == (2, 2)


class TestRandomFactors:
    def test_shapes(self):
        factors = random_factors((3, 4, 5), 2, seed=0)
        assert [f.shape for f in factors] == [(3, 2), (4, 2), (5, 2)]

    def test_nonnegative_option(self):
        factors = random_factors((3, 4), 2, seed=0, nonnegative=True)
        assert all(np.all(f >= 0) for f in factors)

    def test_reproducible(self):
        a = random_factors((3, 4), 2, seed=5)
        b = random_factors((3, 4), 2, seed=5)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)


class TestLowRankGenerators:
    def test_kruskal_tensor_shape(self):
        kt = random_kruskal_tensor((3, 4, 5), 2, seed=0)
        assert kt.shape == (3, 4, 5)
        assert kt.rank == 2

    def test_low_rank_tensor_has_low_multilinear_rank(self):
        t = random_low_rank_tensor((6, 7, 8), 2, seed=0)
        # every unfolding of an exactly rank-2 CP tensor has matrix rank <= 2
        from repro.tensor.matricization import unfold

        for mode in range(3):
            assert np.linalg.matrix_rank(unfold(t.data, mode), tol=1e-8) <= 2

    def test_noisy_low_rank_norm_ratio(self):
        clean = random_low_rank_tensor((6, 7, 8), 2, seed=3).data
        noisy = noisy_low_rank_tensor((6, 7, 8), 2, noise_level=0.1, seed=3).data
        assert noisy.shape == clean.shape
        # noise level is relative; tensors should differ but not wildly
        assert not np.allclose(noisy, clean)

    def test_noise_level_zero_is_exact(self):
        noisy = noisy_low_rank_tensor((4, 4, 4), 2, noise_level=0.0, seed=1)
        from repro.tensor.matricization import unfold

        assert np.linalg.matrix_rank(unfold(noisy.data, 0), tol=1e-8) <= 2

    @pytest.mark.parametrize(
        "noise_level", [float("nan"), float("inf"), -0.1, "0.1", True], ids=repr
    )
    def test_bad_noise_level_rejected_before_any_draw(self, noise_level):
        """No all-NaN or non-finite tensor, no silently flipped noise, no
        TypeError from the arithmetic and no bool run as 1.0."""
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        with pytest.raises(ParameterError, match="noise_level"):
            noisy_low_rank_tensor((4, 4, 4), 2, noise_level=noise_level, seed=rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize(
        "noise_level",
        [0, np.int64(1), np.float32(0.25), np.float64(0.1), Fraction(1, 10)],
        ids=repr,
    )
    def test_real_noise_levels_keep_the_norm_ratio(self, noise_level):
        """Integers, numpy scalars and fractions pass the check, and the
        noise's norm is ``noise_level`` times the signal's."""
        clean = random_low_rank_tensor((6, 7, 8), 2, seed=3).data
        noisy = noisy_low_rank_tensor((6, 7, 8), 2, noise_level=noise_level, seed=3).data
        ratio = np.linalg.norm(noisy - clean) / np.linalg.norm(clean)
        assert ratio == pytest.approx(float(noise_level), rel=1e-9, abs=1e-15)


def _three_tensor_noisy_low_rank(shape, rank, noise_level, seed):
    """Reference: the out-of-place generator, which holds signal, noise and
    scaled noise at once and returns the sum as a new tensor."""
    rng = np.random.default_rng(seed)
    signal = random_kruskal_tensor(shape, rank, seed=rng).full().data
    noise = rng.standard_normal(signal.shape)
    noise_norm = np.linalg.norm(noise.ravel())
    signal_norm = np.linalg.norm(signal.ravel())
    if noise_norm > 0 and signal_norm > 0:
        noise = noise * (noise_level * signal_norm / noise_norm)
    return signal + noise


class TestGeneratorLayoutAndMemory:
    """The generators return C-ordered data and hold at most two tensors."""

    @pytest.mark.parametrize(
        "shape,rank,noise_level",
        [
            ((12, 10), 3, 0.02),
            ((12, 12, 12), 3, 0.1),
            ((12, 12, 12, 12), 3, 0.1),
            ((9, 8, 7), 3, 0.02),
            ((6, 5, 4, 3), 3, 0.02),
            ((60, 50, 40), 3, 1e-2),
            ((4, 4, 4), 2, 0.0),
        ],
    )
    def test_noisy_low_rank_is_bitwise_the_out_of_place_sum(self, shape, rank, noise_level):
        got = noisy_low_rank_tensor(shape, rank, noise_level=noise_level, seed=11).data
        want = _three_tensor_noisy_low_rank(shape, rank, noise_level, 11)
        assert got.flags["C_CONTIGUOUS"]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_noisy_low_rank_peak_is_two_tensors(self):
        tracemalloc.start()
        try:
            data = noisy_low_rank_tensor((60, 50, 40), 3, seed=0).data
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * data.nbytes

    def test_low_rank_peak_is_its_output(self):
        """The reconstruction is written in C order by its GEMM: no second
        tensor-sized copy."""
        tracemalloc.start()
        try:
            data = random_low_rank_tensor((60, 50, 40), 3, seed=0).data
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * data.nbytes

    @pytest.mark.parametrize("shape", [(12, 10), (9, 8, 7), (6, 5, 4, 3)])
    def test_low_rank_is_c_ordered_with_the_reconstruction_values(self, shape):
        data = random_low_rank_tensor(shape, 3, seed=4).data
        assert data.flags["C_CONTIGUOUS"]
        full = random_kruskal_tensor(shape, 3, seed=4).full().data
        assert np.array_equal(data, full)

    def test_default_tree_runs_its_root_gemm_on_low_rank_input(self):
        tensor = random_low_rank_tensor((9, 8, 7), 3, seed=5)
        with tracing() as session:
            cp_als(tensor, 3, n_iter_max=3, tol=0.0, seed=6)
        assert session.metrics.counter("dimtree.root.gemm") > 0
        assert session.metrics.counter("dimtree.root.chain") == 0
