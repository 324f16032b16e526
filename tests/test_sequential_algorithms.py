"""Unit tests for the counted sequential algorithms (Algorithms 1 and 2)."""

import numpy as np
import pytest

from repro.bounds.sequential import sequential_lower_bound
from repro.core.kernels import mttkrp
from repro.costmodel.sequential_model import blocked_cost_upper_bound, unblocked_cost
from repro.exceptions import ParameterError
from repro.sequential.blocked import blocked_io_cost, sequential_blocked_mttkrp
from repro.sequential.machine import IOCounter
from repro.sequential.unblocked import sequential_unblocked_mttkrp
from repro.tensor.random import random_factors, random_tensor


def problem(shape=(8, 9, 10), rank=4, seed=0):
    return random_tensor(shape, seed=seed), random_factors(shape, rank, seed=seed + 1)


class TestUnblockedAlgorithm:
    def test_result_correct_all_modes(self):
        tensor, factors = problem()
        for mode in range(3):
            result = sequential_unblocked_mttkrp(tensor, factors, mode)
            assert np.allclose(result.result, mttkrp(tensor, factors, mode))

    def test_io_count_matches_formula(self):
        shape, rank = (8, 9, 10), 4
        tensor, factors = problem(shape, rank)
        result = sequential_unblocked_mttkrp(tensor, factors, 0)
        assert result.words_moved == unblocked_cost(shape, rank)

    def test_io_count_independent_of_mode(self):
        tensor, factors = problem()
        counts = [sequential_unblocked_mttkrp(tensor, factors, m).words_moved for m in range(3)]
        assert len(set(counts)) == 1

    def test_loads_and_stores_split(self):
        shape, rank = (4, 4, 4), 2
        tensor, factors = problem(shape, rank)
        result = sequential_unblocked_mttkrp(tensor, factors, 0)
        total = 64
        assert result.counter.stores == total * rank
        assert result.counter.loads == total + total * rank * 3

    def test_external_counter_accumulates(self):
        tensor, factors = problem((4, 4, 4), 2)
        counter = IOCounter()
        sequential_unblocked_mttkrp(tensor, factors, 0, counter=counter)
        first = counter.words_moved
        sequential_unblocked_mttkrp(tensor, factors, 1, counter=counter)
        assert counter.words_moved == 2 * first


class TestBlockedAlgorithm:
    @pytest.mark.parametrize("block", [1, 2, 3, 5, 16])
    def test_result_correct_for_any_block(self, block):
        tensor, factors = problem()
        for mode in range(3):
            result = sequential_blocked_mttkrp(tensor, factors, mode, block=block)
            assert np.allclose(result.result, mttkrp(tensor, factors, mode))

    @pytest.mark.parametrize("block", [1, 2, 4, 7])
    def test_io_count_matches_exact_formula(self, block):
        shape, rank, mode = (8, 9, 10), 4, 1
        tensor, factors = problem(shape, rank)
        result = sequential_blocked_mttkrp(tensor, factors, mode, block=block)
        assert result.words_moved == blocked_io_cost(shape, rank, mode, block)

    @pytest.mark.parametrize("block", [2, 3, 5])
    def test_io_count_below_paper_upper_bound(self, block):
        shape, rank = (8, 9, 10), 4
        tensor, factors = problem(shape, rank)
        result = sequential_blocked_mttkrp(tensor, factors, 0, block=block)
        assert result.words_moved <= blocked_cost_upper_bound(shape, rank, block) + 1e-9

    def test_block_one_equals_unblocked_count(self):
        shape, rank = (5, 6, 7), 3
        tensor, factors = problem(shape, rank)
        blocked = sequential_blocked_mttkrp(tensor, factors, 0, block=1)
        assert blocked.words_moved == unblocked_cost(shape, rank)

    def test_larger_blocks_reduce_communication(self):
        shape, rank = (16, 16, 16), 4
        tensor, factors = problem(shape, rank)
        w1 = sequential_blocked_mttkrp(tensor, factors, 0, block=1).words_moved
        w4 = sequential_blocked_mttkrp(tensor, factors, 0, block=4).words_moved
        w8 = sequential_blocked_mttkrp(tensor, factors, 0, block=8).words_moved
        assert w1 > w4 > w8

    def test_automatic_block_choice_from_memory(self):
        tensor, factors = problem((12, 12, 12), 3)
        result = sequential_blocked_mttkrp(tensor, factors, 0, memory_words=200)
        assert result.block >= 2
        assert np.allclose(result.result, mttkrp(tensor, factors, 0))

    def test_memory_violation_raises(self):
        tensor, factors = problem((12, 12, 12), 3)
        with pytest.raises(ParameterError):
            sequential_blocked_mttkrp(tensor, factors, 0, block=10, memory_words=100)

    def test_memory_check_can_be_disabled(self):
        tensor, factors = problem((12, 12, 12), 3)
        result = sequential_blocked_mttkrp(
            tensor, factors, 0, block=10, memory_words=100, check_memory=False
        )
        assert np.allclose(result.result, mttkrp(tensor, factors, 0))

    def test_requires_block_or_memory(self):
        tensor, factors = problem()
        with pytest.raises(ParameterError):
            sequential_blocked_mttkrp(tensor, factors, 0)

    def test_non_cubical_shapes(self):
        shape, rank = (4, 15, 7), 3
        tensor, factors = problem(shape, rank, seed=3)
        result = sequential_blocked_mttkrp(tensor, factors, 2, block=4)
        assert np.allclose(result.result, mttkrp(tensor, factors, 2))
        assert result.words_moved == blocked_io_cost(shape, rank, 2, 4)


class TestOptimality:
    """Measured Algorithm 2 communication sits between the lower bounds and Eq. (21)."""

    @pytest.mark.parametrize("memory", [64, 256, 1024])
    def test_sandwich(self, memory):
        shape, rank, mode = (16, 16, 16), 4, 0
        tensor, factors = problem(shape, rank, seed=9)
        from repro.sequential.block_size import choose_block_size

        block = choose_block_size(3, memory, shape=shape)
        measured = sequential_blocked_mttkrp(
            tensor, factors, mode, block=block, memory_words=memory
        ).words_moved
        bounds = sequential_lower_bound(shape, rank, memory)
        assert bounds.combined <= measured <= blocked_cost_upper_bound(shape, rank, block) + 1e-9

    def test_blocked_beats_unblocked_with_reasonable_memory(self):
        shape, rank = (16, 16, 16), 4
        tensor, factors = problem(shape, rank, seed=11)
        blocked = sequential_blocked_mttkrp(tensor, factors, 0, memory_words=512)
        unblocked = sequential_unblocked_mttkrp(tensor, factors, 0)
        assert blocked.words_moved < unblocked.words_moved
