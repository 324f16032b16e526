"""Unit tests for the dimension-tree cost model (repro.costmodel.dimtree_model)."""

import math

import pytest

from repro.core.dimtree import DimensionTreeKernel, dimtree_sweep_cost
from repro.costmodel import dimtree_crossover_rank, dimtree_vs_independent
from repro.cp.als import cp_als
from repro.tensor.random import noisy_low_rank_tensor


def tree(shape, rank):
    """One sweep of the cached half-split tree."""
    return dimtree_sweep_cost(shape, rank)


def independent(shape, rank):
    """``N`` independent per-mode chains: the cache-disabled comb."""
    return dimtree_sweep_cost(shape, rank, cache=False)


class TestSweepTerms:
    @pytest.mark.parametrize(
        "shape,rank",
        [((10, 10, 10), 4), ((16, 12, 8), 4), ((8, 7, 6, 5), 3), ((6, 5, 4, 3, 4), 2)],
    )
    def test_tree_flops_strictly_below_independent(self, shape, rank):
        """Acceptance: per-sweep flops strictly below N independent kernels (N >= 3)."""
        assert tree(shape, rank).flops < independent(shape, rank).flops

    def test_two_way_schedules_coincide(self):
        """N = 2 has no shareable partials: tree == independent exactly."""
        assert tree((9, 7), 3) == independent((9, 7), 3)

    def test_root_reads_two_vs_n(self):
        assert tree((6, 6, 6, 6), 3).root_reads == 2
        assert independent((6, 6, 6, 6), 3).root_reads == 4

    def test_speedup_approaches_n_over_2_for_cubic(self):
        """The classic dimension-tree gain: ~N/2 on large cubic problems."""
        speedup = dimtree_vs_independent((30, 30, 30, 30), 2)["flop_speedup"]
        assert 1.8 < speedup <= 2.0
        speedup6 = dimtree_vs_independent((8, 8, 8, 8, 8, 8), 2)["flop_speedup"]
        assert speedup6 > 2.5


class TestAffinityAndCrossover:
    @pytest.mark.parametrize("shape", [(10, 10, 10), (2, 4, 100), (5, 4, 3, 6)])
    @pytest.mark.parametrize("cache", [True, False])
    def test_words_are_affine_in_rank(self, shape, cache):
        """The crossover derivation relies on exact affinity: check at R = 3, 7."""
        w1 = dimtree_sweep_cost(shape, 1, cache=cache).words
        w2 = dimtree_sweep_cost(shape, 2, cache=cache).words
        slope = w2 - w1
        intercept = w1 - slope
        for rank in (3, 7):
            assert dimtree_sweep_cost(shape, rank, cache=cache).words == intercept + slope * rank

    def test_cubic_shapes_never_cross(self):
        assert dimtree_crossover_rank((10, 10, 10)) == math.inf
        assert dimtree_crossover_rank((8, 8, 8, 8)) == math.inf

    def test_lopsided_shape_has_finite_crossover(self):
        """A tiny leading mode with fat trailing modes: the cached right-half
        partial carries rank-scaled traffic the chains never pay, so the
        tree's words overtake above a finite rank."""
        shape = (2, 4, 100)
        crossover = dimtree_crossover_rank(shape)
        assert math.isfinite(crossover)
        below = max(int(math.floor(crossover)), 1)
        above = int(math.ceil(crossover)) + 1
        if below <= crossover:
            assert tree(shape, below).words <= independent(shape, below).words
        assert tree(shape, above).words > independent(shape, above).words

    def test_flops_still_win_past_the_word_crossover(self):
        """The trade is words-for-flops: even above the word crossover the
        tree performs strictly less arithmetic."""
        shape = (2, 4, 100)
        rank = int(math.ceil(dimtree_crossover_rank(shape))) + 5
        assert tree(shape, rank).flops < independent(shape, rank).flops

    def test_two_way_crossover_is_inf(self):
        assert dimtree_crossover_rank((6, 8)) == math.inf


class TestComparisonDict:
    def test_dimtree_vs_independent_fields(self):
        out = dimtree_vs_independent((8, 7, 6), 3)
        assert out["dimtree"]["flops"] < out["independent"]["flops"]
        assert out["flop_speedup"] > 1.0
        assert out["dimtree"]["root_reads"] == 2
        assert out["independent"]["root_reads"] == 3
        assert out["crossover_rank"] == math.inf
        assert 0 < out["word_ratio"] < 1.0

    def test_counted_equals_modelled_is_exact(self):
        """Belt and braces: the model is the engine's schedule, so the two
        bench columns (counted vs modelled) can only agree exactly."""
        shape, rank = (5, 4, 6, 3), 2
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.05, seed=0)
        out = dimtree_vs_independent(shape, rank)
        for column, cache in (("dimtree", True), ("independent", False)):
            kernel = DimensionTreeKernel(cache=cache)
            cp_als(tensor, rank, n_iter_max=2, tol=0.0, seed=1, kernel=kernel)
            assert [sweep.to_dict() for sweep in kernel.per_sweep_costs()] == [out[column]] * 2
