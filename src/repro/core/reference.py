"""Literal reference implementation of Definition 2.1.

``B(i_n, r) = sum_i X(i) * prod_{k != n} A_k(i_k, r)`` with the products
evaluated atomically as N-ary multiplies.  This implementation iterates the
full iteration space ``[I_1] x ... x [I_N] x [R]`` in Python and is therefore
only suitable for small tensors; every other kernel in the package is tested
against it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.tensor.dense import as_ndarray
from repro.tensor.khatri_rao import khatri_rao_row
from repro.utils.indexing import iter_multi_indices
from repro.utils.validation import check_factor_matrices, check_mode, infer_rank


def mttkrp_reference(
    tensor, factors: Sequence[Optional[np.ndarray]], mode: int
) -> np.ndarray:
    """Matricized-tensor times Khatri-Rao product, straight from Definition 2.1.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor (``DenseTensor`` or array-like), ``N >= 2``.
    factors:
        One factor matrix per mode (``I_k x R``); the entry for ``mode`` is
        ignored and may be ``None``.
    mode:
        The fixed mode ``n`` whose factor matrix is *not* an input.

    Returns
    -------
    numpy.ndarray
        Output matrix ``B`` of shape ``(I_mode, R)``.
    """
    data = as_ndarray(tensor)
    mode = check_mode(mode, data.ndim)
    rank = infer_rank(factors, mode)
    check_factor_matrices(factors, data.shape, rank, skip_mode=mode)

    other_modes = [k for k in range(data.ndim) if k != mode]
    out = np.zeros((data.shape[mode], rank), dtype=np.float64)
    for index in iter_multi_indices(data.shape):
        row_indices = [index[k] for k in other_modes]
        # one atomic N-ary multiply per (i, r) pair
        out[index[mode], :] += data[index] * khatri_rao_row(factors, mode, row_indices)
    return out
