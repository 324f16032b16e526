"""Multi-mode MTTKRP with partial-result reuse (dimension tree).

Section VII of the paper points out that MTTKRP almost never occurs alone:
CP-ALS and gradient-based methods need the MTTKRP *for every mode*, and the
mode computations share intermediate contractions (Phan, Tichavský, Cichocki,
reference [13]).  :func:`multi_mode_mttkrp` serves several modes of *fixed*
factor matrices from one :class:`repro.core.dimtree.DimensionTree`, the
engine the ALS drivers run:

* the root holds the tensor;
* each internal node splits its mode set in half and holds a partial tensor
  in which the other modes have been contracted away against their factor
  matrices (keeping a shared rank axis);
* each leaf holds exactly one uncontracted mode, i.e. the MTTKRP result for
  that mode.

Compared with computing the ``N`` MTTKRPs independently, the tree touches the
full tensor only twice (once per child of the root) instead of ``N`` times,
which is precisely the cross-mode reuse the paper's conclusion describes.
The outputs equal the per-mode kernels' up to the association of the sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.dimtree import DimensionTree
from repro.exceptions import ParameterError
from repro.tensor.dense import as_ndarray
from repro.utils.validation import check_factor_matrices, check_mode


@dataclass(frozen=True)
class MultiModeResult:
    """Result of a dimension-tree multi-mode MTTKRP.

    Attributes
    ----------
    outputs:
        Mapping mode -> MTTKRP output matrix ``B^(mode)`` of shape ``(I_mode, R)``.
    partial_contractions:
        Number of single-mode contraction steps performed (the work measure
        the tree optimises; ``N`` independent MTTKRPs would need ``N*(N-1)``).
    """

    outputs: Dict[int, np.ndarray]
    partial_contractions: int


def multi_mode_mttkrp(
    tensor,
    factors: Sequence[Optional[np.ndarray]],
    modes: Optional[Sequence[int]] = None,
) -> MultiModeResult:
    """Compute the MTTKRP for several modes at once with a dimension tree.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor, ``N >= 2``.
    factors:
        One factor matrix per mode, all of shape ``(I_k, R)``.  Unlike the
        single-mode kernels, *every* factor matrix is required (each mode is
        an output of one leaf and an input to the others).
    modes:
        Which modes to produce outputs for (default: all of them).  Only the
        tree nodes on the paths to these modes' leaves are computed.

    Returns
    -------
    MultiModeResult
        Per-mode MTTKRP outputs plus the contraction-step count, which is
        the tree's counted ``contractions`` (a root child built as one GEMM
        counts as the single-mode steps it replaces).

    Notes
    -----
    With fixed factor matrices the outputs equal those of
    :func:`repro.core.kernels.mttkrp` applied mode by mode, up to the
    association of the sums.  Inside CP-ALS the factors change between mode
    updates; :class:`repro.core.dimtree.DimensionTreeKernel` runs the same
    tree there and recomputes exactly the partials an update invalidates.
    """
    data = as_ndarray(tensor)
    n_modes = data.ndim
    if n_modes < 2:
        raise ParameterError("multi_mode_mttkrp requires a tensor with at least 2 modes")
    if modes is None:
        modes = list(range(n_modes))
    modes = [check_mode(m, n_modes) for m in modes]
    if len(set(modes)) != len(modes):
        raise ParameterError("modes must be distinct")
    rank = None
    for f in factors:
        if f is not None:
            rank = int(np.asarray(f).shape[1])
            break
    if rank is None:
        raise ParameterError("factor matrices are required")
    check_factor_matrices(factors, data.shape, rank)

    tree = DimensionTree(data)
    outputs = {mode: tree.mttkrp(factors, mode) for mode in sorted(modes)}
    return MultiModeResult(outputs=outputs, partial_contractions=tree.contractions)


def independent_contraction_steps(n_modes: int) -> int:
    """Contraction steps needed by ``N`` independent single-mode MTTKRPs: ``N (N-1)``."""
    if n_modes < 2:
        raise ParameterError("n_modes must be >= 2")
    return n_modes * (n_modes - 1)
