"""Tests validating the element-wise simulators against the fast counted implementations."""

import numpy as np
import pytest

from repro.core.kernels import mttkrp
from repro.exceptions import MemoryModelError, ParameterError
from repro.sequential.blocked import sequential_blocked_mttkrp
from repro.sequential.elementwise import elementwise_blocked_mttkrp, elementwise_unblocked_mttkrp
from repro.sequential.machine import TwoLevelMemory
from repro.sequential.unblocked import sequential_unblocked_mttkrp
from repro.tensor.random import random_factors, random_tensor


def problem(shape=(4, 5, 3), rank=3, seed=0):
    return random_tensor(shape, seed=seed), random_factors(shape, rank, seed=seed + 1)


class TestElementwiseUnblocked:
    def test_result_correct(self):
        tensor, factors = problem()
        for mode in range(3):
            result = elementwise_unblocked_mttkrp(tensor, factors, mode)
            assert np.allclose(result.result, mttkrp(tensor, factors, mode))

    def test_counts_match_fast_implementation(self):
        tensor, factors = problem()
        fast = sequential_unblocked_mttkrp(tensor, factors, 1)
        slow = elementwise_unblocked_mttkrp(tensor, factors, 1)
        assert slow.counter.loads == fast.counter.loads
        assert slow.counter.stores == fast.counter.stores

    def test_runs_in_small_fast_memory(self):
        """Algorithm 1 only needs N+1 resident words at a time."""
        tensor, factors = problem((3, 3, 3), 2)
        memory = TwoLevelMemory(capacity=4)  # N + 1 = 4
        result = elementwise_unblocked_mttkrp(tensor, factors, 0, memory=memory)
        assert np.allclose(result.result, mttkrp(tensor, factors, 0))

    def test_overflows_when_memory_too_small(self):
        tensor, factors = problem((3, 3, 3), 2)
        memory = TwoLevelMemory(capacity=3)
        with pytest.raises(MemoryModelError):
            elementwise_unblocked_mttkrp(tensor, factors, 0, memory=memory)


class TestElementwiseBlocked:
    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_result_correct(self, block):
        tensor, factors = problem()
        for mode in range(3):
            result = elementwise_blocked_mttkrp(tensor, factors, mode, block)
            assert np.allclose(result.result, mttkrp(tensor, factors, mode))

    @pytest.mark.parametrize("block", [1, 2, 3, 4])
    def test_counts_match_fast_implementation(self, block):
        tensor, factors = problem((4, 5, 3), 3, seed=2)
        for mode in range(3):
            fast = sequential_blocked_mttkrp(tensor, factors, mode, block=block)
            slow = elementwise_blocked_mttkrp(tensor, factors, mode, block)
            assert slow.counter.loads == fast.counter.loads
            assert slow.counter.stores == fast.counter.stores

    def test_working_set_fits_declared_memory(self):
        """Block size b needs b^N + N*b (+ slack) words; verify with a checked memory."""
        tensor, factors = problem((4, 4, 4), 2, seed=3)
        block = 2
        capacity = block**3 + 3 * block  # Eq. (11) working set
        memory = TwoLevelMemory(capacity=capacity)
        result = elementwise_blocked_mttkrp(tensor, factors, 0, block, memory=memory)
        assert np.allclose(result.result, mttkrp(tensor, factors, 0))

    def test_overflow_detected_for_undersized_memory(self):
        tensor, factors = problem((4, 4, 4), 2, seed=4)
        block = 2
        memory = TwoLevelMemory(capacity=block**3 + 3 * block - 1)
        with pytest.raises(MemoryModelError):
            elementwise_blocked_mttkrp(tensor, factors, 0, block, memory=memory)

    def test_two_way_tensor(self):
        tensor, factors = problem((6, 5), 2, seed=5)
        result = elementwise_blocked_mttkrp(tensor, factors, 0, 2)
        assert np.allclose(result.result, mttkrp(tensor, factors, 0))


@pytest.mark.parametrize(
    "kernel",
    [
        elementwise_unblocked_mttkrp,
        lambda tensor, factors, mode: elementwise_blocked_mttkrp(tensor, factors, mode, 2),
    ],
    ids=["unblocked", "blocked"],
)
def test_no_input_factor_raises_parameter_error(kernel):
    """Rank inference is the package's one helper, with its error type and message."""
    tensor, _ = problem()
    with pytest.raises(ParameterError, match="at least one input factor matrix is required"):
        kernel(tensor, [None, None, None], 0)
