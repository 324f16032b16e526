"""Cache-blocked dense MTTKRP: the tiled matricized-GEMM kernel.

The einsum kernel of :mod:`repro.core.kernels` evaluates the whole MTTKRP as
one optimized contraction.  That is flop-optimal but not *traffic*-optimal:
the contraction path materializes an intermediate of roughly
``prod(shape) * R / max_extent`` words and streams it through slow memory,
which is exactly the regime the paper's sequential lower bound (Section IV)
says a blocked schedule avoids.  This module is the executable form of that
argument, the dense sibling of the chunked sparse kernel
(:func:`repro.tensor.sparse.sparse_mttkrp`):

* the tensor is cut into tiles whose working set fits fast memory
  (:func:`repro.sequential.block_size.choose_dense_tiles` — tile sizes from
  the machine model, as in Theorem 6.1's ``b = floor((alpha M)^(1/N))``);
* each tile iteration is a *matricized GEMM*: copy the tile contiguous with
  the output mode leading, form the Khatri-Rao row block of the non-output
  factor row tiles, multiply ``(b_n x prod(b_k)) @ (prod(b_k) x R)`` at BLAS
  speed, and accumulate into the output rows — the Tensor Toolbox lineage's
  reformulation of MTTKRP as tiled GEMMs instead of one giant ``einsum``;
* tile scratch (matricized tile, KRP block, GEMM output) is borrowed from
  the :mod:`repro.backend.workspace` pool, so steady-state sweeps allocate
  nothing;
* output-mode tiles write disjoint output rows, so they run as independent
  tasks on the thread executor of :mod:`repro.backend.parallel` — the
  result is bitwise identical for every thread count because no arithmetic
  moves across tasks (accumulation over non-output tiles happens *inside*
  each task, in fixed lexicographic order).

When one tile covers the whole tensor the kernel dispatches to the einsum
path verbatim — the same bitwise single-chunk fallback contract the sparse
kernel keeps with :func:`repro.tensor.sparse.sparse_mttkrp_unchunked`.
:func:`dense_mttkrp` adds the ``method="auto"`` dispatch: the wall-clock
model of :mod:`repro.costmodel.kernel_timing` picks einsum or blocked (and
the thread count's worth) per problem.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend.parallel import parallel_map, resolve_threads
from repro.backend.workspace import WorkspacePool, default_pool
from repro.exceptions import ParameterError
from repro.observe.instrument import inc as observe_inc
from repro.tensor.dense import as_ndarray
from repro.utils.validation import check_factor_matrices, check_mode, infer_rank

__all__ = ["DENSE_METHODS", "blocked_mttkrp", "dense_mttkrp"]

#: Dispatch methods accepted by :func:`dense_mttkrp`.
DENSE_METHODS = ("auto", "einsum", "blocked")


def _default_tiles(
    shape: Sequence[int], rank: int, mode: int, memory_words: Optional[int]
) -> Tuple[int, ...]:
    """Machine-model tile sizes (deferred import: sequential layers on core)."""
    from repro.sequential.block_size import (
        DEFAULT_DENSE_TILE_MEMORY_WORDS,
        choose_dense_tiles,
    )

    if memory_words is None:
        memory_words = DEFAULT_DENSE_TILE_MEMORY_WORDS
    return choose_dense_tiles(shape, rank, mode, memory_words)


def _check_tiles(tiles, shape: Sequence[int]) -> Tuple[int, ...]:
    if isinstance(tiles, (int, np.integer)):
        tiles = (int(tiles),) * len(shape)
    tiles = tuple(int(t) for t in tiles)
    if len(tiles) != len(shape):
        raise ParameterError(
            f"expected one tile size per mode ({len(shape)}), got {len(tiles)}"
        )
    if any(t < 1 for t in tiles):
        raise ParameterError(f"tile sizes must be positive, got {tiles}")
    return tuple(min(t, int(dim)) for t, dim in zip(tiles, shape))


def _tile_ranges(extent: int, tile: int) -> List[Tuple[int, int]]:
    return [(start, min(start + tile, extent)) for start in range(0, extent, tile)]


def _krp_rows(
    factor_tiles: Sequence[np.ndarray], rank: int, pool: WorkspacePool
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Khatri-Rao product of factor row tiles (first factor slowest-varying).

    Returns ``(krp, lease)``: the row block to multiply against the
    matricized tile, and the pooled buffer backing it (``None`` when the
    block is just a view of the single input tile) for the caller to
    release.  Row ordering matches the row-major flattening of the tile's
    non-output axes in ascending mode order.
    """
    krp = factor_tiles[0]
    rows = int(krp.shape[0])
    lease: Optional[np.ndarray] = None
    for factor_tile in factor_tiles[1:]:
        extent = int(factor_tile.shape[0])
        grown = pool.borrow((rows * extent, rank))
        np.multiply(
            krp[:, None, :],
            factor_tile[None, :, :],
            out=grown.reshape(rows, extent, rank),
        )
        if lease is not None:
            pool.release(lease)
        lease = grown
        krp = grown
        rows *= extent
    return krp, lease


def blocked_mttkrp(
    tensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    *,
    tiles: Union[None, int, Sequence[int]] = None,
    memory_words: Optional[int] = None,
    threads: Optional[int] = None,
    pool: Optional[WorkspacePool] = None,
) -> np.ndarray:
    """Cache-blocked dense MTTKRP (tiled matricized GEMM).

    Parameters
    ----------
    tensor, factors, mode:
        As in :func:`repro.core.kernels.mttkrp`; the entry of ``factors`` at
        ``mode`` is ignored and may be ``None``.
    tiles:
        Per-mode tile sizes (an int is broadcast to every mode; values are
        clamped to the tensor extents).  When omitted they come from
        :func:`repro.sequential.block_size.choose_dense_tiles` so one tile
        iteration's working set fits the fast memory ``memory_words``.  Tiles
        covering every extent dispatch to the einsum kernel verbatim — the
        exact-equality (bitwise) fallback.
    memory_words:
        Fast-memory budget for the default tile choice (default:
        :data:`repro.sequential.block_size.DEFAULT_DENSE_TILE_MEMORY_WORDS`).
    threads:
        Thread count for output-mode tile tasks (``None`` consults
        ``REPRO_THREADS``, default 1).  Results are bitwise identical for
        every value — tasks own disjoint output rows.
    pool:
        Workspace pool for tile scratch (default: the process pool).

    Returns
    -------
    numpy.ndarray
        ``(I_mode, R)`` float64 output; equal to the einsum kernel up to the
        reassociation of the per-row sums over non-output tiles (exactly
        equal — bitwise — when one tile covers the tensor).
    """
    data = as_ndarray(tensor)
    if data.ndim < 2:
        raise ParameterError("blocked_mttkrp requires a tensor with at least 2 modes")
    mode = check_mode(mode, data.ndim)
    rank = infer_rank(factors, mode)
    check_factor_matrices(factors, data.shape, rank, skip_mode=mode)

    if tiles is None:
        tiles = _default_tiles(data.shape, rank, mode, memory_words)
    tiles = _check_tiles(tiles, data.shape)

    if all(t >= dim for t, dim in zip(tiles, data.shape)):
        # One tile covers the tensor: the tiled loop would perform the same
        # contraction with extra copies, so dispatch to the einsum path
        # verbatim (bitwise), mirroring the sparse kernel's single-chunk
        # fallback.
        observe_inc("blocked_mttkrp.fallback")
        return _einsum_mttkrp(data, factors, mode)

    threads = resolve_threads(threads)
    if pool is None:
        pool = default_pool()

    others = [k for k in range(data.ndim) if k != mode]
    host_factors = {k: np.asarray(factors[k]) for k in others}
    output = np.zeros((data.shape[mode], rank), dtype=np.float64)

    out_ranges = _tile_ranges(data.shape[mode], tiles[mode])
    other_ranges = [_tile_ranges(data.shape[k], tiles[k]) for k in others]
    combos = list(itertools.product(*other_ranges))

    def run_tile_row(out_range: Tuple[int, int]) -> None:
        i0, i1 = out_range
        rows = i1 - i0
        out_rows = output[i0:i1]
        gemm = pool.borrow((rows, rank))
        try:
            for combo in combos:
                slices = [slice(None)] * data.ndim
                slices[mode] = slice(i0, i1)
                extent = 1
                for k, (j0, j1) in zip(others, combo):
                    slices[k] = slice(j0, j1)
                    extent *= j1 - j0
                moved = np.moveaxis(data[tuple(slices)], mode, 0)
                mat = pool.borrow((rows, extent))
                np.copyto(mat.reshape(moved.shape), moved)
                krp, krp_lease = _krp_rows(
                    [host_factors[k][j0:j1] for k, (j0, j1) in zip(others, combo)],
                    rank,
                    pool,
                )
                np.matmul(mat, krp, out=gemm)
                np.add(out_rows, gemm, out=out_rows)
                if krp_lease is not None:
                    pool.release(krp_lease)
                pool.release(mat)
        finally:
            pool.release(gemm)

    parallel_map(run_tile_row, out_ranges, threads=threads)
    observe_inc("blocked_mttkrp.tiles", len(out_ranges) * len(combos))
    observe_inc("blocked_mttkrp.threads", threads)
    return output


def _einsum_mttkrp(data, factors, mode):
    """The einsum kernel (deferred call site to keep one import direction)."""
    from repro.core.kernels import mttkrp

    return mttkrp(data, factors, mode)


def dense_mttkrp(
    tensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    *,
    method: str = "auto",
    tiles: Union[None, int, Sequence[int]] = None,
    memory_words: Optional[int] = None,
    threads: Optional[int] = None,
    pool: Optional[WorkspacePool] = None,
) -> np.ndarray:
    """Dense MTTKRP with method dispatch: einsum, blocked, or cost-model auto.

    ``method="auto"`` asks :func:`repro.costmodel.kernel_timing.predict_dense_winner`
    which path the wall-clock model expects to win for this problem size,
    tile choice, and (resolved) thread count — on a single-core machine the
    model never picks a threaded candidate — and runs it.  The decision is
    recorded as ``dense_dispatch.einsum`` / ``dense_dispatch.blocked``
    counters so traced runs can audit the dispatch.
    """
    if method not in DENSE_METHODS:
        raise ParameterError(
            f"method must be one of {', '.join(DENSE_METHODS)}, got {method!r}"
        )
    if method == "einsum":
        return _einsum_mttkrp(tensor, factors, mode)
    if method == "blocked":
        return blocked_mttkrp(
            tensor,
            factors,
            mode,
            tiles=tiles,
            memory_words=memory_words,
            threads=threads,
            pool=pool,
        )

    # Deferred import: costmodel layers on sequential which layers on core.
    from repro.costmodel.kernel_timing import EINSUM_LABEL, predict_dense_winner

    data = as_ndarray(tensor)
    mode = check_mode(mode, data.ndim)
    rank = infer_rank(factors, mode)
    resolved_threads = resolve_threads(threads)
    thread_options = (1,) if resolved_threads == 1 else (1, resolved_threads)
    winner = predict_dense_winner(
        data.shape,
        rank,
        mode=mode,
        tiles=tiles,
        memory_words=memory_words,
        threads_options=thread_options,
    )
    if winner == EINSUM_LABEL:
        observe_inc("dense_dispatch.einsum")
        return _einsum_mttkrp(data, factors, mode)
    observe_inc("dense_dispatch.blocked")
    winner_threads = int(winner.rsplit(":t", 1)[1])
    return blocked_mttkrp(
        data,
        factors,
        mode,
        tiles=tiles,
        memory_words=memory_words,
        threads=winner_threads,
        pool=pool,
    )
