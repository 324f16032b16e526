"""Tests for the sampled-MTTKRP cost model (repro.sketch.costmodel)."""

import numpy as np
import pytest

from repro.bounds.parallel import combined_parallel_lower_bound
from repro.bounds.sequential import sequential_lower_bound
from repro.costmodel.sequential_model import blocked_cost_simplified
from repro.exceptions import ParameterError
from repro.sketch.costmodel import (
    crossover_sample_count,
    optimal_sample_grid,
    parallel_sampled_words,
    sampled_mttkrp_words,
    sampling_setup_words,
)

SHAPE = (1024, 1024, 1024)
RANK = 16
MEMORY = 2**20


class TestSequentialModel:
    def test_words_linear_plus_output(self):
        w1 = sampled_mttkrp_words(SHAPE, RANK, 0, 1000)
        w2 = sampled_mttkrp_words(SHAPE, RANK, 0, 2000)
        output = SHAPE[0] * RANK
        assert w2 - output == 2 * (w1 - output)

    def test_words_formula(self):
        words = sampled_mttkrp_words((8, 6, 4), 2, 1, 10)
        assert words == 10 * 6 + 10 * 2 * 2 + 6 * 2

    def test_setup_words(self):
        setup = sampling_setup_words((8, 6, 4), 2, 1)
        assert setup == (8 + 4) * 2
        with_setup = sampled_mttkrp_words((8, 6, 4), 2, 1, 10, include_setup=True)
        assert with_setup == sampled_mttkrp_words((8, 6, 4), 2, 1, 10) + setup

    def test_crossover_balances_blocked_cost(self):
        s_star = crossover_sample_count(SHAPE, RANK, 0, MEMORY)
        assert s_star > 0
        words = sampled_mttkrp_words(SHAPE, RANK, 0, int(round(s_star)))
        exact = blocked_cost_simplified(SHAPE, RANK, MEMORY)
        assert abs(words - exact) / exact < 1e-3

    def test_crossover_clamped_at_zero(self):
        # With a huge memory the blocked algorithm only pays the mandatory
        # tensor read, which the fixed sampled-output term can exceed.
        assert crossover_sample_count((4, 4, 4), 64, 0, 2**30) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            sampled_mttkrp_words(SHAPE, RANK, 0, 0)
        with pytest.raises(ParameterError):
            sampled_mttkrp_words(SHAPE, RANK, 9, 10)


class TestSampledVsExact:
    """The sampled words set against the paper's bound and its optimal algorithm."""

    def test_small_sample_beats_lower_bound(self):
        sampled = sampled_mttkrp_words(SHAPE, RANK, 0, 4096)
        bound = sequential_lower_bound(SHAPE, RANK, MEMORY).combined
        exact = blocked_cost_simplified(SHAPE, RANK, MEMORY)
        assert sampled < bound <= exact

    def test_oversampling_loses(self):
        # Sampling more rows than the Khatri-Rao product has cannot win.
        total_rows = SHAPE[1] * SHAPE[2]
        sampled = sampled_mttkrp_words(SHAPE, RANK, 0, 4 * total_rows)
        assert sampled > blocked_cost_simplified(SHAPE, RANK, MEMORY)
        assert sampled > sequential_lower_bound(SHAPE, RANK, MEMORY).combined

    def test_setup_keeps_small_sample_below_bound(self):
        """The factor-linear setup does not close the gap to the bound."""
        sampled = sampled_mttkrp_words(SHAPE, RANK, 0, 4096, include_setup=True)
        assert sampled < sequential_lower_bound(SHAPE, RANK, MEMORY).combined

    def test_setup_lowers_crossover_by_its_words(self):
        plain = crossover_sample_count(SHAPE, RANK, 0, MEMORY)
        with_setup = crossover_sample_count(SHAPE, RANK, 0, MEMORY, include_setup=True)
        per_sample = SHAPE[0] + (len(SHAPE) - 1) * RANK
        assert np.isclose(plain - with_setup, sampling_setup_words(SHAPE, RANK, 0) / per_sample)


class TestParallelModel:
    def test_words_decrease_with_processors(self):
        w4 = parallel_sampled_words(SHAPE, RANK, 0, 2**16, 4)
        w64 = parallel_sampled_words(SHAPE, RANK, 0, 2**16, 64)
        assert w64 < w4

    def test_grid_balances_terms(self):
        p_s = optimal_sample_grid(SHAPE, 0, 2**12, 64)
        assert 1.0 <= p_s <= 64.0
        # Unclamped optimum: the allgather and reduce-scatter terms agree to
        # within the -1 of the reduce-scatter factor.
        allgather = 2**12 * 2 * RANK / p_s
        reduce_scatter = p_s * SHAPE[0] * RANK / 64
        assert abs(allgather - reduce_scatter) / allgather < 0.05

    def test_grid_clamped_to_processor_count(self):
        assert optimal_sample_grid(SHAPE, 0, 2**22, 4) == 4.0
        assert optimal_sample_grid((4096, 4, 4), 0, 2, 1024) == 1.0

    def test_single_sample_group_needs_no_reduction(self):
        # P_s = 1: every processor owns all samples for its output rows, so
        # only the allgather term remains.
        words = parallel_sampled_words((4096, 4, 4), RANK, 0, 2, 1024)
        assert np.isclose(words, 2 * 2 * RANK)

    def test_small_sample_beats_parallel_bound(self):
        words = parallel_sampled_words(SHAPE, RANK, 0, 2**10, 64)
        assert words < combined_parallel_lower_bound(SHAPE, RANK, 64).combined

    def test_huge_sample_loses_to_parallel_bound(self):
        total_rows = SHAPE[1] * SHAPE[2]
        words = parallel_sampled_words(SHAPE, RANK, 0, 8 * total_rows, 2)
        assert words > combined_parallel_lower_bound(SHAPE, RANK, 2).combined
