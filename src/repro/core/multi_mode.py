"""Multi-mode MTTKRP with partial-result reuse (dimension tree).

Section VII of the paper points out that MTTKRP almost never occurs alone:
CP-ALS and gradient-based methods need the MTTKRP *for every mode*, and the
mode computations share intermediate contractions (Phan, Tichavský, Cichocki,
reference [13]).  This module implements the standard *dimension-tree*
scheme:

* the root holds the tensor;
* each internal node splits its mode set in half and produces, for each half,
  a partial tensor in which the other half's modes have been contracted away
  against their factor matrices (keeping a shared rank axis);
* each leaf holds exactly one uncontracted mode, i.e. the MTTKRP result for
  that mode.

Compared with computing the ``N`` MTTKRPs independently, the tree touches the
full tensor only twice (once per child of the root) instead of ``N`` times,
which is precisely the cross-mode reuse the paper's conclusion describes.
The results are *numerically identical* to the per-mode kernels given the
same (fixed) factor matrices, which is what the tests verify.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.kernels import _contraction_path, _path_cache_key
from repro.exceptions import ParameterError
from repro.tensor.dense import as_ndarray
from repro.utils.validation import check_factor_matrices, check_mode

_RANK_LETTER = "z"


def contract_mode_step(
    data: np.ndarray, axis: int, factor: np.ndarray, has_rank: bool
) -> np.ndarray:
    """Contract one mode axis of a partial tensor against a factor matrix.

    The single-step primitive shared by the fixed-factor dimension tree below
    and the caching ALS engine of :mod:`repro.core.dimtree`: the first
    contraction of a chain introduces the trailing rank axis via
    ``tensordot``; every later one sums over the mode axis while multiplying
    element-wise along the rank axis, as a two-operand einsum whose
    contraction path is memoized (the operand shapes repeat identically
    sweep after sweep inside ALS).
    """
    if not has_rank:
        return np.tensordot(data, factor, axes=([axis], [0]))
    letters = list(string.ascii_lowercase[: data.ndim - 1])
    input_sub = "".join(letters) + _RANK_LETTER
    output_sub = "".join(letters[:axis] + letters[axis + 1 :]) + _RANK_LETTER
    spec = f"{input_sub},{letters[axis]}{_RANK_LETTER}->{output_sub}"
    key = _path_cache_key(
        ("contract-step", tuple(int(d) for d in data.shape), axis), (data, factor)
    )
    path = _contraction_path(key, spec, (data, factor))
    return np.einsum(spec, data, factor, optimize=path)


@dataclass
class _PartialTensor:
    """An intermediate node of the dimension tree.

    Attributes
    ----------
    data:
        Array whose leading axes correspond to the uncontracted tensor modes
        (in increasing mode order) followed, if ``has_rank`` is set, by a
        trailing rank axis of extent ``R``.
    modes:
        The uncontracted tensor modes, in the order of ``data``'s leading axes.
    has_rank:
        Whether the trailing rank axis is present (it appears after the first
        contraction with a factor matrix).
    """

    data: np.ndarray
    modes: List[int]
    has_rank: bool


def _contract_away(
    partial: _PartialTensor, factors: Sequence[np.ndarray], remove: Sequence[int]
) -> _PartialTensor:
    """Contract the modes in ``remove`` against their factor matrices.

    Each contraction sums over the mode's axis while multiplying element-wise
    along the shared rank axis (introducing that axis on first use).
    """
    data = partial.data
    modes = list(partial.modes)
    has_rank = partial.has_rank
    for k in sorted(remove, reverse=True):
        axis = modes.index(k)
        data = contract_mode_step(data, axis, np.asarray(factors[k]), has_rank)
        has_rank = True
        modes.pop(axis)
    return _PartialTensor(data=data, modes=modes, has_rank=has_rank)


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
        Which modes to produce outputs for (default: all of them).  The tree
        is built over exactly these modes; the remaining modes are contracted
        away at the root.

    Returns
    -------
    MultiModeResult
        Per-mode MTTKRP outputs plus the contraction-step count.

    Notes
    -----
    With fixed factor matrices the outputs equal those of
    :func:`repro.core.kernels.mttkrp` applied mode by mode.  Inside CP-ALS the
    factors change between mode updates, so a dimension tree must recompute
    the partials that involve updated factors; that scheduling concern is
    orthogonal to this kernel and is discussed in Section VII of the paper as
    future work.
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

    outputs: Dict[int, np.ndarray] = {}
    counter = {"steps": 0}

    def contract(partial: _PartialTensor, remove: Sequence[int]) -> _PartialTensor:
        counter["steps"] += len(remove)
        return _contract_away(partial, factors, remove)

    def recurse(partial: _PartialTensor, target_modes: List[int]) -> None:
        if len(target_modes) == 1:
            mode = target_modes[0]
            final = partial
            # contract any stray non-target modes (possible at the root when
            # only a subset of modes was requested)
            extra = [m for m in final.modes if m != mode]
            if extra:
                final = contract(final, extra)
            result = final.data
            if not final.has_rank:
                # Degenerate case: a 1-way "tree" cannot occur for N >= 2
                # because the sibling's modes were contracted with factors.
                raise ParameterError("internal error: leaf without a rank axis")
            outputs[mode] = np.ascontiguousarray(result)
            return
        half = len(target_modes) // 2
        left, right = target_modes[:half], target_modes[half:]
        stray = [m for m in partial.modes if m not in target_modes]
        left_partial = contract(partial, right + stray)
        recurse(left_partial, left)
        right_partial = contract(partial, left + stray)
        recurse(right_partial, right)

    root = _PartialTensor(data=data, modes=list(range(n_modes)), has_rank=False)
    if len(modes) == 1:
        # single requested mode: fall back to a straight contraction
        only = modes[0]
        final = contract(root, [m for m in range(n_modes) if m != only])
        outputs[only] = np.ascontiguousarray(final.data)
    else:
        recurse(root, sorted(modes))
    return MultiModeResult(outputs=outputs, partial_contractions=counter["steps"])


def independent_contraction_steps(n_modes: int) -> int:
    """Contraction steps needed by ``N`` independent single-mode MTTKRPs: ``N (N-1)``."""
    if n_modes < 2:
        raise ParameterError("n_modes must be >= 2")
    return n_modes * (n_modes - 1)
