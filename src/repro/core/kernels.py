"""Fast single-node MTTKRP kernels.

:func:`mttkrp` is the vectorised reference kernel.  It expresses the
contraction as a single ``einsum`` with an optimised contraction path; the
*result* is identical to the atomic N-ary-multiply definition (Definition
2.1), only the association of the arithmetic differs.

:func:`gemm_mttkrp` is the partial MTTKRP that removes one contiguous block
of modes, run as one BLAS GEMM between a free reshape of a C-contiguous
tensor and the Khatri-Rao product of the removed modes' factors (Tensor
Toolbox's ``mttkrp``, the fast-gradient form of Phan, Tichavský and
Cichocki, arXiv 1204.1586), or, for a block between kept modes, as one
batched ``matmul``.  It never permutes or copies the tensor, and it
declines (returns ``None``) whenever that is impossible or the Khatri-Rao
product or the output would outgrow the tensor.  The dimension trees build
every node they read off the tensor with it; :func:`contract_mode_step`,
which contracts one mode of a partial against its factor, builds every
other node.

:func:`dense_mttkrp` is the one dense dispatch rule, which
:func:`local_mttkrp` runs.  A call runs as one :func:`gemm_mttkrp` of the
free unfolding exactly where einsum's planned path would copy the tensor:
its first step contracts the tensor with the factor of a middle mode, which
numpy can only run on a transposed copy of the whole tensor.  Every other
call returns :func:`mttkrp`'s bytes from the same cached path; a first step
against the leading or the trailing mode reshapes the tensor for free.  The
rule reads only shape, mode, rank and memory layout, so its results never
depend on a thread count or a timing.

:func:`local_mttkrp` is :func:`dense_mttkrp` under the name the blocked and
parallel algorithms use for their local step (the block step of Algorithm
2, Line 6 of Algorithm 3 and Line 7 of Algorithm 4).
"""

from __future__ import annotations

import math
import string
import threading
from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from repro.observe.instrument import inc as observe_inc
from repro.tensor.dense import as_ndarray
from repro.tensor.khatri_rao import khatri_rao
from repro.utils.validation import check_factor_matrices, check_mode, infer_rank

#: Index letter reserved for the rank dimension in the einsum specification.
_RANK_LETTER = "z"

#: Maximum number of tensor modes supported by the einsum-based kernel.
MAX_MODES = len(string.ascii_lowercase) - 1

#: Memoized einsum contraction paths.  The greedy path search of
#: ``optimize=True`` is pure Python and, inside ALS hot loops, was re-run on
#: every MTTKRP call even though the operand shapes repeat identically sweep
#: after sweep; the cache makes the search a once-per-problem cost.  Keys
#: include the operand dtypes alongside ``(shape, mode, rank)``: a path
#: planned for float64 operands must never be served to a float32 call,
#: whose intermediate-size tradeoffs differ.  Bounded as an LRU (insertion order
#: doubles as recency order: hits are moved to the end, overflow evicts the
#: oldest entry) so a long multi-problem process sheds cold one-off shapes
#: while the hot steady-state ALS paths survive.  Shared mutable state the
#: moment kernels run on the thread executor (the per-rank local MTTKRPs of
#: Algorithms 3 and 4 may plan paths concurrently), so every
#: lookup/move-to-end/evict happens under ``_PATH_CACHE_LOCK`` — path
#: *planning* itself runs outside the lock (it is pure), at worst
#: duplicating a plan that the last writer then wins.
_PATH_CACHE: OrderedDict = OrderedDict()
_PATH_CACHE_MAX_ENTRIES = 512
_PATH_CACHE_LOCK = threading.Lock()


def _path_cache_key(base, operands):
    """Full cache key: the call-site ``base`` plus the operand dtypes."""
    return (base, tuple(str(op.dtype) for op in operands))


def _contraction_path(key, spec: str, operands) -> list:
    """The cached einsum path for ``spec`` over ``operands`` (see ``_PATH_CACHE``)."""
    with _PATH_CACHE_LOCK:
        path = _PATH_CACHE.get(key)
        if path is not None:
            observe_inc("path_cache.hit")
            _PATH_CACHE.move_to_end(key)
            return path
    observe_inc("path_cache.miss")
    # Path planning reads only shapes and dtypes, so plan over
    # zero-strided dummies: free of data movement.
    dummies = [
        np.lib.stride_tricks.as_strided(
            np.empty(1, dtype=np.dtype(str(op.dtype))),
            shape=tuple(int(d) for d in op.shape),
            strides=(0,) * len(op.shape),
        )
        for op in operands
    ]
    path = np.einsum_path(spec, *dummies, optimize=True)[0]
    with _PATH_CACHE_LOCK:
        if key not in _PATH_CACHE and len(_PATH_CACHE) >= _PATH_CACHE_MAX_ENTRIES:
            _PATH_CACHE.popitem(last=False)
        _PATH_CACHE[key] = path
        _PATH_CACHE.move_to_end(key)
    return path


def _einsum_spec(ndim: int, mode: int) -> str:
    """Einsum specification string for an ``ndim``-way MTTKRP in mode ``mode``.

    For example ``ndim=3, mode=1`` yields ``"abc,az,cz->bz"``.
    """
    letters = string.ascii_lowercase[:ndim]
    parts = [letters]
    for k in range(ndim):
        if k == mode:
            continue
        parts.append(letters[k] + _RANK_LETTER)
    return ",".join(parts) + "->" + letters[mode] + _RANK_LETTER


def mttkrp(
    tensor, factors: Sequence[Optional[np.ndarray]], mode: int
) -> np.ndarray:
    """Vectorised dense MTTKRP.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor (``DenseTensor`` or array-like), ``2 <= N <= 25``.
    factors:
        One factor matrix per mode (``I_k x R``); the entry for ``mode`` is
        ignored and may be ``None``.
    mode:
        The output mode ``n``.  The contraction path is planned once per
        (shapes, dtypes) and memoized.

    Returns
    -------
    numpy.ndarray
        ``B`` of shape ``(I_mode, R)`` with
        ``B[i, r] = sum X[i_1..i_N] prod_{k != mode} A_k[i_k, r]`` where the
        sum runs over all indices with ``i_mode = i``.
    """
    data, mode, rank = _checked_operands(tensor, factors, mode)
    operands = _einsum_operands(data, factors, mode)
    return _einsum_mttkrp(operands, mode, _mttkrp_path(operands, mode, rank))


def _checked_operands(tensor, factors, mode):
    """``(data, mode, rank)`` after every argument check :func:`mttkrp` makes."""
    data = as_ndarray(tensor)
    if data.ndim > MAX_MODES:
        raise ValueError(f"mttkrp supports at most {MAX_MODES} modes, got {data.ndim}")
    mode = check_mode(mode, data.ndim)
    rank = infer_rank(factors, mode)
    check_factor_matrices(factors, data.shape, rank, skip_mode=mode)
    return data, mode, rank


def _einsum_operands(data: np.ndarray, factors, mode: int) -> list:
    """The einsum operands of a mode-``mode`` MTTKRP: the tensor, then the other factors."""
    return [data] + [np.asarray(factors[k]) for k in range(data.ndim) if k != mode]


def _mttkrp_path(operands, mode: int, rank: int) -> list:
    """The cached einsum path of :func:`mttkrp` over ``operands``.

    Reads only the operands' shapes and dtypes, so zero-strided stand-ins
    (``np.broadcast_to(0.0, shape)``) plan the same path as the arrays.
    """
    tensor = operands[0]
    key = _path_cache_key((tuple(tensor.shape), mode, rank), operands)
    return _contraction_path(key, _einsum_spec(tensor.ndim, mode), operands)


def _einsum_mttkrp(operands, mode: int, path: list) -> np.ndarray:
    """The einsum contraction of :func:`mttkrp` along ``path``."""
    spec = _einsum_spec(operands[0].ndim, mode)
    return np.ascontiguousarray(np.einsum(spec, *operands, optimize=path))


def _path_copies_tensor(shape: Sequence[int], mode: int, path: list) -> bool:
    """Whether einsum ``path`` of a mode-``mode`` MTTKRP copies the tensor.

    numpy runs a two-operand step as one BLAS product with the contracted
    mode moved last.  When the first step pairs the tensor (operand 0) with the
    factor of a middle mode ``k`` (``0 < k < N - 1``), that move is a
    transposed copy of the whole tensor; against the leading or the
    trailing mode it is a free reshape.  A first step over more operands
    runs without a matmul.  (A mode of extent 1 is not considered: numpy
    copies the tensor to drop it, whichever mode the first step contracts.)
    """
    first = path[1]
    if len(first) != 2 or 0 not in first:
        return False
    k = [j for j in range(len(shape)) if j != mode][max(first) - 1]
    return 0 < k < len(shape) - 1


def gemm_mttkrp(
    data: np.ndarray,
    factors: Sequence[Optional[np.ndarray]],
    kept: Sequence[int],
    rank: int,
) -> Optional[np.ndarray]:
    """Partial MTTKRP keeping the modes ``kept``, as one GEMM, or ``None``.

    Every mode not in ``kept`` (ascending) is contracted with its factor.
    ``KRP`` is the Khatri-Rao product of the removed modes' factors (first
    mode slowest).  When ``kept`` leads or trails, the result is
    ``(KRP.T @ X_removed).T``, where ``X_removed`` is the unfolding with the
    removed modes as rows: ``X.reshape(kept, -1).T`` when ``kept`` leads
    and ``X.reshape(-1, kept)`` when it trails.  When the removed modes sit
    between kept ones, it is ``matmul(KRP.T, X.reshape(left, removed,
    right))``, one GEMM per index of the leading kept block.  Either way
    there is no copy of a tensor in the factors' dtype and no rank-wide
    partial of it; the result, of shape ``(I_k for k in kept) + (R,)``, is
    a rank-major view, the layout in which both this product and the
    einsums that contract it further run fastest.

    ``kept`` must be a non-empty proper subset of the modes, in ascending
    order.  Returns ``None``, and the caller contracts some other way,
    unless the guard holds: ``data`` is C-contiguous (every unfolding above
    is a free reshape), the removed modes are one contiguous block, and
    ``R`` is at most both the kept and the removed extent products, so that
    neither the Khatri-Rao product nor the output outgrows the tensor.  The
    factors are not checked here.
    """
    kept = tuple(kept)
    n_modes = data.ndim
    removed = [k for k in range(n_modes) if k not in kept]
    kept_size = math.prod(data.shape[k] for k in kept)
    removed_size = math.prod(data.shape[k] for k in removed)
    if (
        removed != list(range(removed[0], removed[-1] + 1))
        or not data.flags.c_contiguous
        or rank > min(kept_size, removed_size)
    ):
        return None
    krp = khatri_rao([np.asarray(factors[k]) for k in removed])
    kept_shape = tuple(data.shape[k] for k in kept)
    # The kept-trailing read is the fastest of the three: at 300^3, R=16 on
    # one OpenBLAS thread it takes about 37 ms, against 52-57 ms kept-leading
    # and 47-51 ms for a middle block.  No other layout of those two reads
    # was faster: X.reshape(kept, -1) @ krp, 1,024- or 4,096-row blocks with
    # out=, a reused output buffer, a split of the contracted index, a
    # per-slab loop and per-slab transposes all ran as slow or slower, so
    # each case keeps its one GEMM.
    if removed[-1] == n_modes - 1:  # kept leads
        out = (krp.T @ data.reshape(kept_size, removed_size).T).T
    elif removed[0] == 0:  # kept trails
        out = (krp.T @ data.reshape(removed_size, kept_size)).T
    else:
        left = math.prod(data.shape[: removed[0]])
        blocks = data.reshape(left, removed_size, kept_size // left)
        out = np.matmul(krp.T, blocks).transpose(0, 2, 1)
    return out.reshape(kept_shape + (rank,))


def contract_mode_step(
    data: np.ndarray, axis: int, factor: np.ndarray, has_rank: bool
) -> np.ndarray:
    """Contract one mode axis of a partial tensor against a factor matrix.

    The single-mode step of the dimension tree
    (:class:`repro.core.dimtree.DimensionTree`): the first contraction of a
    chain introduces the trailing rank axis via ``tensordot``; every later
    one sums over the mode axis while multiplying element-wise along the
    rank axis, as a two-operand einsum whose contraction path is memoized
    (the operand shapes repeat identically sweep after sweep inside ALS).
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


def dense_mttkrp(
    tensor, factors: Sequence[Optional[np.ndarray]], mode: int
) -> np.ndarray:
    """The dense MTTKRP: one GEMM exactly where einsum's path would copy the tensor.

    A call runs as :func:`gemm_mttkrp` of the free unfolding when the
    tensor is C-contiguous, the cached einsum path of :func:`mttkrp` starts
    with a step that copies the tensor (its first step contracts the tensor
    with the factor of a middle mode) and the GEMM's guard holds (``mode``
    is the leading or the trailing mode, and ``R`` is at most both
    ``I_mode`` and the product of the other extents); the result equals
    :func:`mttkrp` up to the association of the sums.  Every other call
    returns :func:`mttkrp`'s bytes from the same path.  At 300³ with
    ``R = 16`` the path copies in mode 0 only; at 4×4×6 with ``R = 3`` in no
    mode; at 3×8×7 with ``R = 4`` in modes 0 and 2, of which only mode 2
    passes the guard.  Arguments are checked exactly as :func:`mttkrp`
    checks them.  The rule reads only shape, mode, rank and memory layout,
    never a thread count or a timing.  Each call counts
    ``dense_dispatch.gemm`` or ``dense_dispatch.einsum``.
    """
    data, mode, rank = _checked_operands(tensor, factors, mode)
    operands = _einsum_operands(data, factors, mode)
    path = _mttkrp_path(operands, mode, rank)
    if data.flags.c_contiguous and _path_copies_tensor(data.shape, mode, path):
        out = gemm_mttkrp(data, factors, (mode,), rank)
        if out is not None:
            observe_inc("dense_dispatch.gemm")
            return np.ascontiguousarray(out)
    observe_inc("dense_dispatch.einsum")
    return _einsum_mttkrp(operands, mode, path)


def local_mttkrp(
    local_tensor: np.ndarray, local_factors: Sequence[Optional[np.ndarray]], mode: int
) -> np.ndarray:
    """Local MTTKRP of the blocked and parallel algorithms.

    ``local_tensor`` is a block of the tensor (a processor's sub-tensor, or
    one block of the sequential Algorithm 2) and ``local_factors`` are the
    sub-matrices whose row counts match its dimensions.  This is
    :func:`dense_mttkrp` on the local data: one GEMM where einsum's path
    would copy the block, :func:`mttkrp`'s bytes everywhere else.  It is
    exposed under its own name so the algorithms read like the paper's
    pseudocode (``Local-MTTKRP``).
    """
    return dense_mttkrp(local_tensor, local_factors, mode)


def mttkrp_flops(shape: Sequence[int], rank: int, *, atomic: bool = True) -> int:
    """Classical arithmetic cost of one MTTKRP.

    With atomic N-ary multiplies (Definition 2.1) each of the ``I * R`` loop
    iterations costs ``N - 1`` multiplications and one addition, i.e.
    ``N * I * R`` operations in total (the count used in Eq. (15)).  With the
    factored local kernel of Eq. (17) the cost drops to about ``2 * I * R``.
    """
    total = 1
    for dim in shape:
        total *= int(dim)
    n_modes = len(shape)
    if atomic:
        return n_modes * total * int(rank)
    return 2 * total * int(rank)
