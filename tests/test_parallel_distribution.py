"""Unit tests for the Algorithm 3 / Algorithm 4 data distributions."""

import numpy as np
import pytest

from repro.exceptions import DistributionError
from repro.parallel.distribution import (
    DistributedMTTKRPOutput,
    GeneralDistribution,
    LocalFactorBlock,
    StationaryDistribution,
)
from repro.parallel.grid import ProcessorGrid
from repro.tensor.random import random_factors, random_tensor


class TestStationaryDistribution:
    def setup_method(self):
        self.shape = (8, 6, 4)
        self.rank = 3
        self.mode = 0
        self.grid = ProcessorGrid((2, 3, 2))
        self.dist = StationaryDistribution(self.shape, self.rank, self.mode, self.grid)
        self.tensor = random_tensor(self.shape, seed=0)
        self.factors = random_factors(self.shape, self.rank, seed=1)

    def test_grid_dimension_mismatch(self):
        with pytest.raises(DistributionError):
            StationaryDistribution(self.shape, self.rank, 0, ProcessorGrid((2, 2)))

    def test_subtensors_tile_the_tensor(self):
        blocks = self.dist.distribute_tensor(self.tensor)
        coverage = np.zeros(self.shape, dtype=int)
        for rank_id, block in blocks.items():
            slices = tuple(slice(s, e) for s, e in block.ranges)
            coverage[slices] += 1
            assert np.array_equal(block.data, self.tensor.data[slices])
        assert np.all(coverage == 1)

    def test_factor_rows_partition_exactly_once(self):
        for k in range(3):
            owned = np.zeros(self.shape[k], dtype=int)
            for rank_id in range(self.grid.n_procs):
                owned[self.dist.factor_local_rows(k, rank_id)] += 1
            assert np.all(owned == 1), f"mode {k} rows not covered exactly once"

    def test_distribute_factor_data(self):
        blocks = self.dist.distribute_factor(1, self.factors[1])
        reconstructed = np.zeros_like(self.factors[1])
        for rank_id, block in blocks.items():
            reconstructed[block.rows, :] = block.data
        assert np.allclose(reconstructed, self.factors[1])

    def test_wrong_tensor_shape(self):
        with pytest.raises(DistributionError):
            self.dist.distribute_tensor(random_tensor((4, 4, 4), seed=2))

    def test_wrong_factor_shape(self):
        with pytest.raises(DistributionError):
            self.dist.distribute_factor(1, np.zeros((6, 5)))

    def test_balance_diagnostics(self):
        total = 8 * 6 * 4
        assert self.dist.max_tensor_words() >= total // self.grid.n_procs
        assert self.dist.max_tensor_words() <= total
        assert self.dist.max_factor_words() >= 1


class TestGeneralDistribution:
    def setup_method(self):
        self.shape = (8, 6, 4)
        self.rank = 4
        self.mode = 1
        self.grid = ProcessorGrid((2, 2, 3, 1))
        self.dist = GeneralDistribution(self.shape, self.rank, self.mode, self.grid)
        self.tensor = random_tensor(self.shape, seed=3)
        self.factors = random_factors(self.shape, self.rank, seed=4)

    def test_grid_dimension_mismatch(self):
        with pytest.raises(DistributionError):
            GeneralDistribution(self.shape, self.rank, 0, ProcessorGrid((2, 2, 2)))

    def test_rank_columns_partition(self):
        owned = np.zeros(self.rank, dtype=int)
        seen_p0 = set()
        for rank_id in range(self.grid.n_procs):
            p0 = self.grid.coords(rank_id)[0]
            if p0 in seen_p0:
                continue
            seen_p0.add(p0)
            owned[self.dist.rank_columns(rank_id)] += 1
        assert np.all(owned == 1)

    def test_tensor_pieces_cover_each_subtensor_once(self):
        blocks = self.dist.distribute_tensor(self.tensor)
        # group pieces by sub-tensor ranges and check the flattened coverage
        by_ranges = {}
        for rank_id, block in blocks.items():
            by_ranges.setdefault(block.ranges, []).append(block)
        for ranges, pieces in by_ranges.items():
            size = 1
            for start, stop in ranges:
                size *= stop - start
            covered = np.zeros(size, dtype=int)
            for piece in pieces:
                start, stop = piece.flat_range
                covered[start:stop] += 1
            assert np.all(covered == 1)

    def test_factor_blocks_cover_matrix_once(self):
        for k in range(3):
            if k == self.mode:
                continue
            coverage = np.zeros((self.shape[k], self.rank), dtype=int)
            blocks = self.dist.distribute_factor(k, self.factors[k])
            for rank_id, block in blocks.items():
                if block.data.size:
                    coverage[np.ix_(block.rows, block.cols)] += 1
            assert np.all(coverage == 1)

    def test_factor_group_sizes(self):
        p = self.grid.n_procs
        p0 = self.grid.dims[0]
        for k in range(3):
            for rank_id in range(p):
                group = self.dist.factor_group(k, rank_id)
                assert len(group) == p // (p0 * self.grid.dims[k + 1])

    def test_balance_diagnostics(self):
        assert self.dist.max_tensor_words() >= 1
        assert self.dist.max_factor_words() >= 1


ONE_BUFFER_CASES = [
    (StationaryDistribution, (8, 6, 4), (2, 3, 2)),
    (StationaryDistribution, (7, 5, 3), (3, 2, 1)),
    # More parts than indices: empty blocks, which the sampled kernels accept.
    (StationaryDistribution, (6, 5, 4), (1, 1, 7)),
    (GeneralDistribution, (8, 6, 4), (2, 2, 3, 1)),
    (GeneralDistribution, (7, 5, 3), (3, 1, 2, 1)),
    (GeneralDistribution, (7, 5, 3), (1, 2, 1, 2)),
]


@pytest.mark.parametrize("cls, shape, grid_dims", ONE_BUFFER_CASES)
@pytest.mark.parametrize("order", ["C", "F"])
def test_blocks_are_contiguous_slabs_of_one_buffer(cls, shape, grid_dims, order):
    """Every rank's block is a C-contiguous view of one tensor-sized buffer,
    bytewise equal to a separate copy of its slice of the tensor."""
    data = np.asarray(random_tensor(shape, seed=5).data, order=order)
    blocks = cls(shape, 3, 0, ProcessorGrid(grid_dims)).distribute_tensor(data)
    buffer = blocks[0].data.base
    assert buffer is not None and buffer.size == data.size
    for block in blocks.values():
        assert block.data.base is buffer
        assert block.data.flags.c_contiguous
        separate = data[tuple(slice(start, stop) for start, stop in block.ranges)].copy()
        if block.flat_range is not None:
            separate = separate.reshape(-1)[slice(*block.flat_range)].copy()
        assert block.data.shape == separate.shape
        assert block.data.dtype == separate.dtype
        assert block.data.tobytes() == separate.tobytes()


class TestDistributedOutput:
    def test_assemble_checks_full_coverage(self):
        output = DistributedMTTKRPOutput(shape=(4, 2))
        output.pieces[0] = LocalFactorBlock(
            rows=np.arange(2), cols=np.arange(2), data=np.ones((2, 2))
        )
        with pytest.raises(DistributionError):
            output.assemble()

    def test_assemble_checks_overlap(self):
        output = DistributedMTTKRPOutput(shape=(2, 2))
        output.pieces[0] = LocalFactorBlock(
            rows=np.arange(2), cols=np.arange(2), data=np.ones((2, 2))
        )
        output.pieces[1] = LocalFactorBlock(
            rows=np.arange(1), cols=np.arange(2), data=np.ones((1, 2))
        )
        with pytest.raises(DistributionError):
            output.assemble()

    def test_assemble_success(self):
        output = DistributedMTTKRPOutput(shape=(3, 2))
        output.pieces[0] = LocalFactorBlock(
            rows=np.arange(2), cols=np.arange(2), data=np.full((2, 2), 1.0)
        )
        output.pieces[1] = LocalFactorBlock(
            rows=np.array([2]), cols=np.arange(2), data=np.full((1, 2), 5.0)
        )
        assembled = output.assemble()
        assert assembled[2, 0] == 5.0
        assert output.max_local_words() == 4

    def test_empty_pieces_allowed(self):
        output = DistributedMTTKRPOutput(shape=(2, 2))
        output.pieces[0] = LocalFactorBlock(
            rows=np.arange(2), cols=np.arange(2), data=np.ones((2, 2))
        )
        output.pieces[1] = LocalFactorBlock(
            rows=np.arange(0), cols=np.arange(2), data=np.zeros((0, 2))
        )
        assert output.assemble().shape == (2, 2)
