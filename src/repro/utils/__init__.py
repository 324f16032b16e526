"""Small shared utilities: validation, index arithmetic, and 1-D partitions."""

from repro.utils.validation import (
    check_mode,
    check_positive_int,
    check_rank,
    check_shape,
)
from repro.utils.indexing import (
    iter_multi_indices,
    block_ranges,
    block_starts,
)
from repro.utils.partition import (
    partition_sizes,
    partition_bounds,
)

__all__ = [
    "check_mode",
    "check_positive_int",
    "check_rank",
    "check_shape",
    "iter_multi_indices",
    "block_ranges",
    "block_starts",
    "partition_sizes",
    "partition_bounds",
]
