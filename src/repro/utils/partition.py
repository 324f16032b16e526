"""1-D block partitions used by the parallel data distributions.

Section V-C1 of the paper partitions each tensor dimension ``[I_k]`` into
``P_k`` contiguous parts ``S^(k)_{p_k}`` and (in Algorithm 4) the rank
dimension ``[R]`` into ``P_0`` parts ``T_{p_0}``.  These helpers implement the
standard balanced block partition: the first ``extent % parts`` parts get one
extra element, so part sizes differ by at most one.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.utils.validation import check_positive_int


def partition_sizes(extent: int, parts: int) -> List[int]:
    """Sizes of the ``parts`` pieces of a balanced block partition of ``extent``.

    Sizes are non-increasing and differ by at most one.  ``parts`` may exceed
    ``extent``, in which case trailing parts are empty.
    """
    extent = check_positive_int(extent, "extent", minimum=0) if extent != 0 else 0
    parts = check_positive_int(parts, "parts")
    base, rem = divmod(extent, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def partition_bounds(extent: int, parts: int) -> List[Tuple[int, int]]:
    """Half-open index ranges ``(start, stop)`` of a balanced block partition."""
    sizes = partition_sizes(extent, parts)
    bounds = []
    start = 0
    for size in sizes:
        bounds.append((start, start + size))
        start += size
    return bounds


def max_part_size(extent: int, parts: int) -> int:
    """Largest part size of the balanced block partition (``ceil(extent/parts)``)."""
    extent_i = int(extent)
    parts = check_positive_int(parts, "parts")
    return -(-extent_i // parts)
