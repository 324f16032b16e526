"""Unit tests for the simulated collectives and their bucket-cost accounting."""

import numpy as np
import pytest

from repro.exceptions import MachineError
from repro.parallel.collectives import (
    all_gather,
    all_reduce,
    broadcast,
    bucket_all_gather_cost,
    bucket_all_reduce_cost,
    bucket_reduce_scatter_cost,
    gather_to_root,
    reduce_scatter,
)
from repro.parallel.machine import SimulatedMachine


class TestCostHelpers:
    def test_all_gather_cost(self):
        assert bucket_all_gather_cost(4, 10) == 30
        assert bucket_all_gather_cost(1, 10) == 0

    def test_reduce_scatter_cost(self):
        assert bucket_reduce_scatter_cost(8, 5) == 35

    def test_invalid_group_size(self):
        with pytest.raises(MachineError):
            bucket_all_gather_cost(0, 3)


class TestAllGather:
    def test_data_movement(self):
        machine = SimulatedMachine(3)
        blocks = {0: np.array([1.0, 2.0]), 1: np.array([3.0]), 2: np.array([4.0, 5.0, 6.0])}
        out = all_gather(machine, [0, 1, 2], blocks)
        expected = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        for rank in range(3):
            assert np.array_equal(out[rank], expected)

    def test_cost_charged_per_rank(self):
        machine = SimulatedMachine(3)
        blocks = {r: np.ones(4) for r in range(3)}
        all_gather(machine, [0, 1, 2], blocks)
        # q=3, w=4 -> (q-1)*w = 8 per rank, sent and received
        assert all(machine.words_sent[r] == 8 for r in range(3))
        assert all(machine.words_received[r] == 8 for r in range(3))

    def test_cost_uses_max_block(self):
        machine = SimulatedMachine(2)
        blocks = {0: np.ones(10), 1: np.ones(2)}
        all_gather(machine, [0, 1], blocks)
        assert machine.words_sent[0] == 10

    def test_matrix_concatenation_axis0(self):
        machine = SimulatedMachine(2)
        blocks = {0: np.ones((2, 3)), 1: np.zeros((1, 3))}
        out = all_gather(machine, [0, 1], blocks, axis=0)
        assert out[0].shape == (3, 3)

    def test_single_rank_group_is_free(self):
        machine = SimulatedMachine(2)
        block = np.ones(5)
        out = all_gather(machine, [1], {1: block})
        assert machine.total_words_sent == 0
        assert machine.messages_sent.sum() == 0
        assert np.array_equal(out[1], block)
        assert not np.shares_memory(out[1], block)

    def test_missing_block_raises(self):
        machine = SimulatedMachine(2)
        with pytest.raises(MachineError):
            all_gather(machine, [0, 1], {0: np.ones(2)})

    def test_result_is_a_copy_per_rank(self):
        machine = SimulatedMachine(2)
        out = all_gather(machine, [0, 1], {0: np.ones(2), 1: np.ones(2)})
        out[0][0] = 99.0
        assert out[1][0] == 1.0

    def test_trace_recorded(self):
        machine = SimulatedMachine(2)
        all_gather(machine, [0, 1], {0: np.ones(2), 1: np.ones(2)}, label="test")
        assert machine.records[-1].kind == "all_gather"
        assert machine.records[-1].label == "test"


class TestReduceScatter:
    def test_sum_and_scatter(self):
        machine = SimulatedMachine(2)
        contributions = {0: np.arange(6, dtype=float), 1: np.ones(6)}
        out = reduce_scatter(machine, [0, 1], contributions)
        total = np.arange(6, dtype=float) + 1.0
        assert np.array_equal(out[0], total[:3])
        assert np.array_equal(out[1], total[3:])

    def test_cost_uses_result_block_size(self):
        machine = SimulatedMachine(4)
        contributions = {r: np.ones(8) for r in range(4)}
        reduce_scatter(machine, list(range(4)), contributions)
        # q=4, result blocks of 2 -> (q-1)*2 = 6 per rank
        assert all(machine.words_sent[r] == 6 for r in range(4))

    def test_flops_charged(self):
        machine = SimulatedMachine(2)
        contributions = {0: np.ones(4), 1: np.ones(4)}
        reduce_scatter(machine, [0, 1], contributions)
        assert machine.flops[0] == 2  # (q-1) * w = 1 * 2

    def test_matrix_scatter_along_axis0(self):
        machine = SimulatedMachine(2)
        contributions = {0: np.ones((4, 3)), 1: np.ones((4, 3))}
        out = reduce_scatter(machine, [0, 1], contributions, axis=0)
        assert out[0].shape == (2, 3)
        assert np.all(out[0] == 2.0)

    def test_uneven_scatter(self):
        machine = SimulatedMachine(3)
        contributions = {r: np.ones(7) for r in range(3)}
        out = reduce_scatter(machine, [0, 1, 2], contributions)
        assert [len(out[r]) for r in range(3)] == [3, 2, 2]

    def test_shape_mismatch_raises(self):
        machine = SimulatedMachine(2)
        with pytest.raises(MachineError):
            reduce_scatter(machine, [0, 1], {0: np.ones(4), 1: np.ones(5)})


class TestAllReduceAndBroadcast:
    def test_all_reduce_result(self):
        machine = SimulatedMachine(3)
        contributions = {r: np.full((2, 2), float(r + 1)) for r in range(3)}
        out = all_reduce(machine, [0, 1, 2], contributions)
        for rank in range(3):
            assert np.all(out[rank] == 6.0)

    def test_all_reduce_cost(self):
        machine = SimulatedMachine(2)
        contributions = {r: np.ones(8) for r in range(2)}
        all_reduce(machine, [0, 1], contributions)
        # reduce-scatter (1*4) + all-gather (1*4) = 8 per rank
        assert machine.words_sent[0] == 8

    @pytest.mark.parametrize("q, n", [(2, 8), (3, 9), (4, 9), (8, 3), (1, 5)])
    def test_all_reduce_cost_helper_matches_charge(self, q, n):
        """The replay formula equals what ``all_reduce`` charges, uneven pieces included."""
        machine = SimulatedMachine(q)
        all_reduce(machine, list(range(q)), {r: np.ones(n) for r in range(q)})
        assert np.all(machine.words_sent == bucket_all_reduce_cost(q, n))

    def test_broadcast_delivers_value(self):
        machine = SimulatedMachine(3)
        out = broadcast(machine, [0, 1, 2], root=1, value=np.arange(6))
        for rank in range(3):
            assert np.array_equal(out[rank], np.arange(6))

    def test_broadcast_root_must_be_member(self):
        machine = SimulatedMachine(3)
        with pytest.raises(MachineError):
            broadcast(machine, [0, 1], root=2, value=np.ones(2))

    def test_gather_to_root(self):
        machine = SimulatedMachine(3)
        blocks = {0: np.array([1.0]), 1: np.array([2.0]), 2: np.array([3.0])}
        out = gather_to_root(machine, [0, 1, 2], 0, blocks)
        assert np.array_equal(out, np.array([1.0, 2.0, 3.0]))
        assert machine.words_received[0] == 2
        assert machine.words_sent[1] == 1
        assert machine.words_sent[0] == 0
