"""Algorithm 2: the sequential blocked MTTKRP (communication optimal).

The iteration space is tiled into ``b x ... x b`` blocks.  For each block the
algorithm loads the corresponding sub-tensor once, and for every rank index
``r`` loads the ``N - 1`` input sub-columns, loads the output sub-column,
updates it with a local MTTKRP over the block, and stores it back.  The exact
communication issued is therefore, per block ``(j_1, ..., j_N)`` with actual
per-mode extents ``b_k = min(I_k, j_k + b) - j_k``:

    ``prod_k b_k  +  R * ( sum_{k != n} b_k + 2 * b_n )``

summed over all blocks.  The paper upper-bounds this by Eq. (12); Theorem 6.1
shows the total is within a constant factor of the lower bounds when
``b ≈ (α M)^{1/N}``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels import local_mttkrp
from repro.exceptions import ParameterError
from repro.sequential.block_size import block_size_is_valid, choose_block_size
from repro.sequential.machine import IOCounter
from repro.sequential.unblocked import SequentialResult
from repro.tensor.dense import as_ndarray
from repro.utils.indexing import iter_block_multi_ranges
from repro.utils.validation import check_mode, check_positive_int, infer_rank


def blocked_io_cost(shape: Sequence[int], rank: int, mode: int, block: int) -> int:
    """Exact loads + stores issued by Algorithm 2 with block size ``block``.

    This is the exact sum described in the module docstring (the paper's
    Eq. (12) is an upper bound of this quantity with every ``b_k`` replaced by
    ``b``).
    """
    mode = check_mode(mode, len(shape))
    block = check_positive_int(block, "block")
    total = 0
    for ranges in iter_block_multi_ranges(shape, [block] * len(shape)):
        extents = [stop - start for start, stop in ranges]
        tensor_words = 1
        for extent in extents:
            tensor_words *= extent
        vector_words = sum(extents[k] for k in range(len(shape)) if k != mode)
        output_words = extents[mode]
        total += tensor_words + int(rank) * (vector_words + 2 * output_words)
    return total


def sequential_blocked_mttkrp(
    tensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    *,
    block: Optional[int] = None,
    memory_words: Optional[int] = None,
    counter: Optional[IOCounter] = None,
    check_memory: bool = True,
) -> SequentialResult:
    """Run Algorithm 2 and count its communication.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor.
    factors:
        One factor matrix per mode; entry for ``mode`` is ignored.
    mode:
        Output mode ``n``.
    block:
        Block size ``b``.  When omitted, ``memory_words`` must be given and
        the block size is chosen as in Theorem 6.1
        (:func:`repro.sequential.block_size.choose_block_size`).
    memory_words:
        Fast memory capacity ``M``; used to choose and/or validate ``block``.
    counter:
        Optional existing counter to accumulate into.
    check_memory:
        When both ``block`` and ``memory_words`` are given, verify the
        correctness condition ``b^N + N b <= M`` (Eq. (11)) and raise
        otherwise.

    Returns
    -------
    SequentialResult
        The output matrix, the I/O counter, and the block size used.
    """
    data = as_ndarray(tensor)
    mode = check_mode(mode, data.ndim)
    n_modes = data.ndim
    if block is None:
        if memory_words is None:
            raise ParameterError("either block or memory_words must be provided")
        block = choose_block_size(n_modes, memory_words, shape=data.shape)
    block = check_positive_int(block, "block")
    if memory_words is not None and check_memory and not block_size_is_valid(block, n_modes, memory_words):
        raise ParameterError(
            f"block size b={block} violates b^N + N*b <= M for N={n_modes}, M={memory_words}"
        )
    if counter is None:
        counter = IOCounter()

    rank = infer_rank(factors, mode)

    result = np.zeros((data.shape[mode], rank), dtype=np.float64)
    for ranges in iter_block_multi_ranges(data.shape, [block] * n_modes):
        result_block, loads, stores = _process_block(data, factors, mode, rank, ranges)
        start_n, stop_n = ranges[mode]
        result[start_n:stop_n, :] += result_block
        counter.load(loads)
        counter.store(stores)
    return SequentialResult(result=result, counter=counter, block=block)


def _process_block(
    data: np.ndarray,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    rank: int,
    ranges: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, int, int]:
    """Compute one block's contribution and its exact load/store counts.

    Returns ``(block_output, loads, stores)`` where ``block_output`` has shape
    ``(b_n, R)`` — the *contribution* of this block to the output rows
    ``ranges[mode]`` (the caller accumulates; the store counting below already
    charges the output load + store per ``r`` that the pseudocode issues).
    """
    n_modes = data.ndim
    slices = tuple(slice(start, stop) for start, stop in ranges)
    extents = [stop - start for start, stop in ranges]

    block_tensor = data[slices]
    block_factors: list = []
    for k in range(n_modes):
        if k == mode:
            block_factors.append(None)
        else:
            start, stop = ranges[k]
            block_factors.append(np.asarray(factors[k])[start:stop, :])
    block_output = local_mttkrp(block_tensor, block_factors, mode)

    tensor_words = 1
    for extent in extents:
        tensor_words *= extent
    input_vector_words = sum(extents[k] for k in range(n_modes) if k != mode)
    output_words = extents[mode]
    # Line 6: load the tensor block once.
    loads = tensor_words
    # Lines 8-9 per r: N-1 input sub-columns and the output sub-column.
    loads += rank * (input_vector_words + output_words)
    # Line 17 per r: store the output sub-column.
    stores = rank * output_words
    return block_output, loads, stores
