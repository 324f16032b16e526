"""Element-level simulations of Algorithms 1 and 2 on the capacity-checked memory.

These simulators issue *every single* load and store of the pseudocode on a
:class:`~repro.sequential.machine.TwoLevelMemory`, so they

* verify that the algorithms respect the fast-memory capacity they claim
  (``M >= N + 2`` for Algorithm 1, ``b^N + N b + 1 <= M`` for Algorithm 2 —
  the ``+1``/``+2`` slack covers the scalar tensor element or accumulator the
  paper's count treats as free registers), and
* produce reference load/store counts against which the per-block charging of
  the fast implementations (:mod:`repro.sequential.unblocked`,
  :mod:`repro.sequential.blocked`) is validated.

They run the whole loop nest in Python and are only meant for small tensors
(tests and demonstrations).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.sequential.machine import TwoLevelMemory
from repro.sequential.unblocked import SequentialResult
from repro.tensor.dense import as_ndarray
from repro.utils.indexing import iter_block_multi_ranges, iter_multi_indices
from repro.utils.validation import check_mode, check_positive_int, infer_rank


def elementwise_unblocked_mttkrp(
    tensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    *,
    memory: Optional[TwoLevelMemory] = None,
) -> SequentialResult:
    """Algorithm 1, simulated one instruction at a time.

    Parameters
    ----------
    tensor, factors, mode:
        As in :func:`repro.sequential.sequential_unblocked_mttkrp`.
    memory:
        Optional capacity-checked memory; defaults to an unbounded one.
    """
    data = as_ndarray(tensor)
    mode = check_mode(mode, data.ndim)
    rank = infer_rank(factors, mode)
    if memory is None:
        memory = TwoLevelMemory()

    result = np.zeros((data.shape[mode], rank), dtype=np.float64)
    for index in iter_multi_indices(data.shape):
        x_key = ("X",) + index
        memory.load_value(x_key)  # Line 5
        x_value = data[index]
        for r in range(rank):
            a_keys = []
            product = x_value
            for k in range(data.ndim):
                if k == mode:
                    continue
                a_key = ("A", k, index[k], r)
                memory.load_value(a_key)  # Line 7
                a_keys.append(a_key)
                product = product * np.asarray(factors[k])[index[k], r]
            b_key = ("B", index[mode], r)
            memory.load_value(b_key)  # Line 8
            result[index[mode], r] += product  # Line 9 (accumulate in fast memory)
            memory.touch(b_key)
            memory.store_value(b_key)  # Line 10
            memory.evict(b_key)
            for a_key in a_keys:
                memory.evict(a_key)
        memory.evict(x_key)
    return SequentialResult(result=result, counter=memory, block=1)


def elementwise_blocked_mttkrp(
    tensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    block: int,
    *,
    memory: Optional[TwoLevelMemory] = None,
) -> SequentialResult:
    """Algorithm 2, simulated one instruction at a time with block size ``block``."""
    data = as_ndarray(tensor)
    mode = check_mode(mode, data.ndim)
    block = check_positive_int(block, "block")
    rank = infer_rank(factors, mode)
    if memory is None:
        memory = TwoLevelMemory()

    n_modes = data.ndim
    result = np.zeros((data.shape[mode], rank), dtype=np.float64)
    for ranges in iter_block_multi_ranges(data.shape, [block] * n_modes):
        slices = tuple(slice(start, stop) for start, stop in ranges)
        extents = [stop - start for start, stop in ranges]
        # Line 6: load the tensor block (one key per element so capacity is honest).
        block_keys = []
        for offset in iter_multi_indices(extents):
            index = tuple(ranges[k][0] + offset[k] for k in range(n_modes))
            key = ("X",) + index
            memory.load_value(key)
            block_keys.append(key)
        block_tensor = data[slices]

        start_n, stop_n = ranges[mode]
        for r in range(rank):
            vector_keys = []
            # Line 8: load the input sub-columns.
            for k in range(n_modes):
                if k == mode:
                    continue
                for i in range(ranges[k][0], ranges[k][1]):
                    key = ("A", k, i, r)
                    memory.load_value(key)
                    vector_keys.append(key)
            # Line 9: load the output sub-column.
            b_keys = [("B", i, r) for i in range(start_n, stop_n)]
            for key in b_keys:
                memory.load_value(key)
            # Lines 10-16: block of N-ary multiplies, accumulated in fast memory.
            contribution = _block_contribution(block_tensor, factors, mode, ranges, r)
            result[start_n:stop_n, r] += contribution
            # Line 17: store the output sub-column.
            for key in b_keys:
                memory.touch(key)
                memory.store_value(key)
                memory.evict(key)
            for key in vector_keys:
                memory.evict(key)
        for key in block_keys:
            memory.evict(key)
    return SequentialResult(result=result, counter=memory, block=block)


def _block_contribution(
    block_tensor: np.ndarray,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    ranges,
    r: int,
) -> np.ndarray:
    """Contribution of one block to output column ``r`` (length ``b_n`` vector)."""
    n_modes = block_tensor.ndim
    partial = block_tensor
    # Contract every non-output mode against the r-th column of its factor.
    # Work from the last mode to the first so axis positions stay stable.
    axes = list(range(n_modes))
    for k in range(n_modes - 1, -1, -1):
        if k == mode:
            continue
        axis = axes.index(k)
        start, stop = ranges[k]
        column = np.asarray(factors[k])[start:stop, r]
        partial = np.tensordot(partial, column, axes=([axis], [0]))
        axes.pop(axis)
    return partial
