"""Block-size selection for the sequential blocked algorithm (Algorithm 2).

Algorithm 2 is correct for any positive integer block size ``b`` satisfying
``b^N + N b <= M`` (Eq. (11)/(22)): the working set of one block iteration is
the ``b^N`` sub-tensor block plus ``N`` length-``b`` sub-columns (``N - 1``
inputs and one output).  The communication-optimal choice is
``b ≈ (α M)^(1/N)`` for a constant ``α`` slightly below 1 (Theorem 6.1 uses
``b = floor((α M)^{1/N})``).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from repro.exceptions import ParameterError
from repro.utils.validation import check_positive_int


def working_set_words(block: int, n_modes: int) -> int:
    """Fast-memory words needed by one block iteration: ``b^N + N*b``."""
    block = check_positive_int(block, "block")
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)
    return block**n_modes + n_modes * block


def minimum_memory_for_block(block: int, n_modes: int) -> int:
    """Smallest fast memory ``M`` for which block size ``block`` is valid (Eq. (11))."""
    return working_set_words(block, n_modes)


def block_size_is_valid(block: int, n_modes: int, memory_words: int) -> bool:
    """Whether ``block`` satisfies the correctness condition ``b^N + N b <= M``."""
    memory_words = check_positive_int(memory_words, "memory_words")
    return working_set_words(block, n_modes) <= memory_words


def max_block_size(n_modes: int, memory_words: int) -> int:
    """Largest block size valid for fast memory ``M`` (largest ``b`` with ``b^N + Nb <= M``).

    Raises :class:`~repro.exceptions.ParameterError` when even ``b = 1`` does
    not fit (i.e. ``M < 1 + N``).
    """
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)
    memory_words = check_positive_int(memory_words, "memory_words")
    if not block_size_is_valid(1, n_modes, memory_words):
        raise ParameterError(
            f"fast memory M={memory_words} is too small for any block size "
            f"(need at least {working_set_words(1, n_modes)} words)"
        )
    # b <= M^(1/N) always, so an upper starting point is cheap to compute.
    upper = int(math.floor(memory_words ** (1.0 / n_modes))) + 1
    best = 1
    for candidate in range(1, upper + 1):
        if block_size_is_valid(candidate, n_modes, memory_words):
            best = candidate
        else:
            break
    return best


#: Fast-memory budget (words) for the dense tile chooser: the two-level-model
#: quantity ``M`` sized at 2^20 words (8 MiB of float64), last-level-cache
#: scale, where the blocked dense kernel's tile working set must live for the
#: tiling to beat the monolithic einsum contraction.
DEFAULT_DENSE_TILE_MEMORY_WORDS = 1 << 20


def dense_tile_working_set_words(
    tiles: Sequence[int], rank: int, mode: int
) -> int:
    """Fast-memory words one tile iteration of the blocked dense kernel touches.

    One matricized sub-tensor tile (``prod(tiles)`` words), the Khatri-Rao
    row block of the non-output tiles (``prod(tiles) / tiles[mode] * R``),
    the gathered factor row tiles plus the output tile
    (``sum(tiles) * R``) — the rank-aware dense analogue of
    :func:`working_set_words`'s ``b^N + N b``.
    """
    rank = check_positive_int(rank, "rank")
    tiles = [check_positive_int(t, "tile") for t in tiles]
    if len(tiles) < 2:
        raise ParameterError("dense tiles need at least 2 modes")
    if not 0 <= int(mode) < len(tiles):
        raise ParameterError(f"mode {mode} out of range for {len(tiles)} tiles")
    block_words = 1
    for t in tiles:
        block_words *= t
    krp_words = (block_words // tiles[int(mode)]) * rank
    factor_words = sum(tiles) * rank
    return block_words + krp_words + factor_words


def choose_dense_tiles(
    shape: Sequence[int],
    rank: int,
    mode: int,
    memory_words: int = DEFAULT_DENSE_TILE_MEMORY_WORDS,
    *,
    alpha: float = 0.99,
) -> Tuple[int, ...]:
    """Per-mode tile sizes for the blocked dense MTTKRP.

    The machine-model analogue of :func:`choose_block_size` for the tiled
    matricized-GEMM kernel of :func:`repro.core.blocked_mttkrp.blocked_mttkrp`:
    the largest uniform tile edge ``b`` (clamped per mode to the tensor
    extents, so a short mode frees budget for the long ones) whose working
    set (:func:`dense_tile_working_set_words`) fits in ``alpha * M``.  Always
    valid: the all-ones tiling is the floor.

    Parameters
    ----------
    shape:
        Tensor extents (``N >= 2`` modes).
    rank:
        CP rank ``R`` of the factor matrices.
    mode:
        Output mode of the MTTKRP the tiles serve (its tile carries no
        Khatri-Rao block, so the budget splits differently per mode).
    memory_words:
        Fast-memory budget ``M`` in words (default: last-level-cache scale).
    alpha:
        Fraction of ``M`` the working set may fill, as in Theorem 6.1.
    """
    shape = [check_positive_int(dim, "extent") for dim in shape]
    if len(shape) < 2:
        raise ParameterError("dense tiles need at least 2 modes")
    rank = check_positive_int(rank, "rank")
    if not 0 <= int(mode) < len(shape):
        raise ParameterError(f"mode {mode} out of range for {len(shape)} modes")
    memory_words = check_positive_int(memory_words, "memory_words")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    budget = alpha * memory_words

    def tiles_for(edge: int) -> Tuple[int, ...]:
        return tuple(min(edge, dim) for dim in shape)

    # The working set is monotone in the uniform edge, so bisect on it; the
    # edge never needs to exceed the longest mode.
    low, high = 1, max(shape)
    if dense_tile_working_set_words(tiles_for(high), rank, mode) <= budget:
        return tiles_for(high)
    while low < high:
        middle = (low + high + 1) // 2
        if dense_tile_working_set_words(tiles_for(middle), rank, mode) <= budget:
            low = middle
        else:
            high = middle - 1
    return tiles_for(low)


def choose_block_size(
    n_modes: int, memory_words: int, *, alpha: float = 0.99, shape: Sequence[int] = ()
) -> int:
    """Block size ``b = floor((α M)^{1/N})`` from the proof of Theorem 6.1.

    The result is clamped to be at least 1, at most the largest valid block
    size for ``M``, and (when ``shape`` is provided) at most the largest
    tensor dimension — larger blocks would only waste fast memory.

    Parameters
    ----------
    n_modes:
        Number of tensor modes ``N``.
    memory_words:
        Fast memory capacity ``M``.
    alpha:
        The constant ``α < 1`` of Theorem 6.1; ``0.99`` keeps essentially the
        whole memory for the tensor block while leaving room for the vectors.
    shape:
        Optional tensor shape used to clamp the block size.
    """
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)
    memory_words = check_positive_int(memory_words, "memory_words")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    candidate = int(math.floor((alpha * memory_words) ** (1.0 / n_modes)))
    candidate = max(candidate, 1)
    largest_valid = max_block_size(n_modes, memory_words)
    candidate = min(candidate, largest_valid)
    if shape:
        candidate = min(candidate, max(int(dim) for dim in shape))
    return max(candidate, 1)
