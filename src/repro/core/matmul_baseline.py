"""The "MTTKRP via matrix multiplication" baseline (Section III-B).

The most straightforward dense MTTKRP implementation permutes the tensor into
its mode-``n`` unfolding, forms the Khatri-Rao product of the input factor
matrices explicitly, and multiplies the two matrices:

    ``B = X_(n) @ (A_(N-1) KRP ... KRP A_(n+1) KRP A_(n-1) KRP ... KRP A_0)``

The paper uses this formulation as the baseline for both its sequential and
parallel communication comparisons (Sections VI-A and VI-B).  This module
provides the executable kernel (used for correctness checks and sequential
I/O accounting); the analytic parallel cost model of the baseline lives in
:mod:`repro.costmodel.matmul`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.tensor.dense import as_ndarray
from repro.tensor.khatri_rao import khatri_rao_excluding
from repro.tensor.matricization import unfold
from repro.utils.validation import check_factor_matrices, check_mode, infer_rank


def mttkrp_via_matmul(tensor, factors: Sequence[Optional[np.ndarray]], mode: int):
    """MTTKRP computed as (unfolding) x (explicit Khatri-Rao product).

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor.
    factors:
        One factor matrix per mode; entry for ``mode`` ignored.
    mode:
        Output mode.

    Notes
    -----
    This formulation *violates* the atomic N-ary multiply assumption of
    Definition 2.1 (the Khatri-Rao entries are reused across the GEMM), which
    is exactly why the paper's lower bounds do not apply to it and why its
    communication behaviour is different — it must treat the Khatri-Rao
    product as a general dense matrix.
    """
    data = as_ndarray(tensor)
    mode = check_mode(mode, data.ndim)
    rank = infer_rank(factors, mode)
    check_factor_matrices(factors, data.shape, rank, skip_mode=mode)
    return unfold(data, mode) @ khatri_rao_excluding(factors, mode)
