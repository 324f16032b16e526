"""Multi-index arithmetic for dense tensors and blocked loop nests.

The MTTKRP iteration space is ``[I_1] x ... x [I_N] x [R]``.  The sequential
algorithms sweep this space either element by element (Algorithm 1) or block
by block (Algorithm 2).  These helpers centralise the enumeration of
multi-indices and block ranges so the algorithm implementations stay
readable.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, List, Sequence, Tuple

from repro.exceptions import ParameterError
from repro.utils.validation import check_positive_int, check_shape


def iter_multi_indices(shape: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Iterate over all multi-indices of ``shape`` in row-major order."""
    shape = check_shape(shape)
    return product(*(range(dim) for dim in shape))


def block_starts(extent: int, block: int) -> List[int]:
    """Starting offsets of the blocks of size ``block`` covering ``[0, extent)``."""
    extent = check_positive_int(extent, "extent")
    block = check_positive_int(block, "block")
    return list(range(0, extent, block))


def block_ranges(extent: int, block: int) -> List[Tuple[int, int]]:
    """Half-open ranges ``(start, stop)`` of blocks of size ``block`` over ``[0, extent)``.

    The final block may be smaller than ``block`` when ``block`` does not
    divide ``extent``; this mirrors the ``J_k = min(I_k, j_k + b - 1)`` clamp
    in Algorithm 2 of the paper.
    """
    return [(start, min(extent, start + block)) for start in block_starts(extent, block)]


def iter_block_multi_ranges(
    shape: Sequence[int], blocks: Sequence[int]
) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """Iterate over Cartesian products of per-mode block ranges.

    Parameters
    ----------
    shape:
        Extent of each mode.
    blocks:
        Block size for each mode (may differ per mode).

    Yields
    ------
    tuple of (start, stop) pairs, one per mode, in row-major block order.
    """
    shape = check_shape(shape)
    if len(blocks) != len(shape):
        raise ParameterError("blocks must have one entry per mode")
    per_mode = [block_ranges(dim, check_positive_int(b, "block")) for dim, b in zip(shape, blocks)]
    return product(*per_mode)
