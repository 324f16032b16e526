"""Unit tests for repro.utils.partition."""

from repro.utils.partition import (
    partition_bounds,
    partition_sizes,
    max_part_size,
)


class TestPartitionSizes:
    def test_even_division(self):
        assert partition_sizes(12, 4) == [3, 3, 3, 3]

    def test_uneven_division(self):
        assert partition_sizes(10, 4) == [3, 3, 2, 2]

    def test_more_parts_than_items(self):
        sizes = partition_sizes(3, 5)
        assert sizes == [1, 1, 1, 0, 0]

    def test_sizes_sum_to_extent(self):
        for extent in (1, 7, 16, 31):
            for parts in (1, 2, 3, 8):
                assert sum(partition_sizes(extent, parts)) == extent

    def test_sizes_differ_by_at_most_one(self):
        sizes = partition_sizes(17, 5)
        assert max(sizes) - min(sizes) <= 1


class TestPartitionBounds:
    def test_contiguous_cover(self):
        bounds = partition_bounds(10, 3)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 10
        for (s0, e0), (s1, _) in zip(bounds, bounds[1:]):
            assert e0 == s1

    def test_every_index_in_exactly_one_part(self):
        for extent, parts in ((10, 3), (3, 5), (16, 4)):
            bounds = partition_bounds(extent, parts)
            assert len(bounds) == parts
            for index in range(extent):
                assert sum(start <= index < stop for start, stop in bounds) == 1

    def test_max_part_size(self):
        assert max_part_size(10, 3) == 4
        assert max_part_size(9, 3) == 3
        assert max_part_size(1, 4) == 1
