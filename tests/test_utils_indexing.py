"""Unit tests for repro.utils.indexing."""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.utils.indexing import (
    block_ranges,
    block_starts,
    iter_block_multi_ranges,
    iter_multi_indices,
)


class TestIterMultiIndices:
    def test_count(self):
        assert len(list(iter_multi_indices((2, 3, 4)))) == 24

    def test_order_matches_linear_index(self):
        shape = (2, 3)
        indices = list(iter_multi_indices(shape))
        for lin, idx in enumerate(indices):
            assert np.ravel_multi_index(idx, shape) == lin

    def test_single_mode(self):
        assert list(iter_multi_indices((3,))) == [(0,), (1,), (2,)]


class TestBlocks:
    def test_block_starts(self):
        assert block_starts(10, 4) == [0, 4, 8]

    def test_block_count_is_ceiling(self):
        for extent, block in ((10, 3), (9, 3), (1, 5), (12, 1)):
            assert len(block_starts(extent, block)) == -(-extent // block)

    def test_block_ranges_cover_extent(self):
        ranges = block_ranges(10, 4)
        assert ranges == [(0, 4), (4, 8), (8, 10)]
        covered = sum(stop - start for start, stop in ranges)
        assert covered == 10

    def test_block_ranges_exact_division(self):
        assert block_ranges(8, 4) == [(0, 4), (4, 8)]

    def test_block_larger_than_extent(self):
        assert block_ranges(3, 10) == [(0, 3)]

    def test_iter_block_multi_ranges_count(self):
        blocks = list(iter_block_multi_ranges((5, 4), (2, 2)))
        assert len(blocks) == 3 * 2

    def test_iter_block_multi_ranges_cover(self):
        shape = (5, 4, 3)
        blocks = list(iter_block_multi_ranges(shape, (2, 3, 2)))
        total = sum(
            (r0[1] - r0[0]) * (r1[1] - r1[0]) * (r2[1] - r2[0]) for r0, r1, r2 in blocks
        )
        assert total == 5 * 4 * 3

    def test_invalid_blocks_length(self):
        with pytest.raises(ParameterError):
            list(iter_block_multi_ranges((5, 4), (2,)))
