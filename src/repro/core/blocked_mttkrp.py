"""Cache-blocked dense MTTKRP: the tiled matricized-GEMM kernel.

The einsum kernel of :mod:`repro.core.kernels` evaluates the whole MTTKRP as
one optimized contraction.  That is flop-optimal but not *traffic*-optimal:
the contraction path materializes an intermediate of roughly
``prod(shape) * R / max_extent`` words and streams it through slow memory,
which is exactly the regime the paper's sequential lower bound (Section IV)
says a blocked schedule avoids.  This module is the executable form of that
argument:

* the tensor is cut into tiles whose working set fits fast memory
  (:func:`repro.sequential.block_size.choose_dense_tiles` — tile sizes from
  the machine model, as in Theorem 6.1's ``b = floor((alpha M)^(1/N))``);
* each tile iteration is a *matricized GEMM*: copy the tile contiguous with
  the output mode leading, form the Khatri-Rao row block of the non-output
  factor row tiles, multiply ``(b_n x prod(b_k)) @ (prod(b_k) x R)`` at BLAS
  speed, and accumulate into the output rows — the Tensor Toolbox lineage's
  reformulation of MTTKRP as tiled GEMMs instead of one giant ``einsum``;
* each tile-row task allocates its scratch (matricized tile, Khatri-Rao
  block, GEMM output) once, sized for its largest tile, and reuses views of
  it across its tiles;
* output-mode tiles write disjoint output rows, so they run as independent
  tasks on the thread executor of :mod:`repro.backend.parallel` — the
  result is bitwise identical for every thread count because no arithmetic
  moves across tasks (accumulation over non-output tiles happens *inside*
  each task, in fixed lexicographic order).

When one tile covers the whole tensor the kernel dispatches to the einsum
path verbatim, so a covering tile returns einsum's bytes.

:func:`repro.core.kernels.dense_mttkrp`, the local step of Algorithms 2-4
(one GEMM of the free unfolding where einsum's path would copy the tensor,
einsum everywhere else), is re-exported here because the sweep benchmark
(``bench/layers.py``) imports both kernels from this module.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend.parallel import parallel_map, resolve_threads
from repro.core.kernels import dense_mttkrp, mttkrp
from repro.exceptions import ParameterError
from repro.observe.instrument import inc as observe_inc
from repro.tensor.dense import as_ndarray
from repro.utils.validation import (
    check_factor_matrices,
    check_mode,
    check_positive_int,
    infer_rank,
)

__all__ = ["blocked_mttkrp", "dense_mttkrp"]


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
    if np.ndim(tiles) == 0:
        tiles = (tiles,) * len(shape)
    tiles = tuple(check_positive_int(t, "tile size") for t in tiles)
    if len(tiles) != len(shape):
        raise ParameterError(
            f"expected one tile size per mode ({len(shape)}), got {len(tiles)}"
        )
    return tuple(min(t, int(dim)) for t, dim in zip(tiles, shape))


def _tile_ranges(extent: int, tile: int) -> List[Tuple[int, int]]:
    return [(start, min(start + tile, extent)) for start in range(0, extent, tile)]


def _krp_rows(
    factor_tiles: Sequence[np.ndarray], scratch: Sequence[np.ndarray]
) -> np.ndarray:
    """Khatri-Rao product of factor row tiles (first factor slowest-varying).

    Each step writes into one of the two flat ``scratch`` buffers in turn
    (the previous step's block is an input, so it cannot be the output); a
    single tile is returned as is.  Row ordering matches the row-major
    flattening of the tile's non-output axes in ascending mode order.
    """
    krp = factor_tiles[0]
    rows, rank = krp.shape
    for step, factor_tile in enumerate(factor_tiles[1:]):
        extent = int(factor_tile.shape[0])
        grown = scratch[step % 2][: rows * extent * rank].reshape(rows, extent, rank)
        np.multiply(krp[:, None, :], factor_tile[None, :, :], out=grown)
        rows *= extent
        krp = grown.reshape(rows, rank)
    return krp


def blocked_mttkrp(
    tensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    *,
    tiles: Union[None, int, Sequence[int]] = None,
    memory_words: Optional[int] = None,
    threads: Optional[int] = None,
) -> np.ndarray:
    """Cache-blocked dense MTTKRP (tiled matricized GEMM).

    Parameters
    ----------
    tensor, factors, mode:
        As in :func:`repro.core.kernels.mttkrp`; the entry of ``factors`` at
        ``mode`` is ignored and may be ``None``.
    tiles:
        Per-mode tile sizes (an int applies to every mode; values are
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

    threads = resolve_threads(threads)
    if tiles is None:
        tiles = _default_tiles(data.shape, rank, mode, memory_words)
    tiles = _check_tiles(tiles, data.shape)

    if all(t >= dim for t, dim in zip(tiles, data.shape)):
        # One tile covers the tensor: the tiled loop would perform the same
        # contraction with extra copies, so dispatch to the einsum path
        # verbatim (bitwise).
        observe_inc("blocked_mttkrp.fallback")
        return mttkrp(data, factors, mode)

    others = [k for k in range(data.ndim) if k != mode]
    host_factors = {k: np.asarray(factors[k]) for k in others}
    output = np.zeros((data.shape[mode], rank), dtype=np.float64)

    out_ranges = _tile_ranges(data.shape[mode], tiles[mode])
    other_ranges = [_tile_ranges(data.shape[k], tiles[k]) for k in others]
    combos = list(itertools.product(*other_ranges))
    max_extent = math.prod(tiles[k] for k in others)

    def run_tile_row(out_range: Tuple[int, int]) -> None:
        i0, i1 = out_range
        rows = i1 - i0
        out_rows = output[i0:i1]
        gemm = np.empty((rows, rank))
        mat_scratch = np.empty(rows * max_extent)
        krp_scratch = [np.empty(max_extent * rank) for _ in range(min(2, len(others) - 1))]
        for combo in combos:
            slices = [slice(None)] * data.ndim
            slices[mode] = slice(i0, i1)
            extent = 1
            for k, (j0, j1) in zip(others, combo):
                slices[k] = slice(j0, j1)
                extent *= j1 - j0
            moved = np.moveaxis(data[tuple(slices)], mode, 0)
            mat = mat_scratch[: rows * extent].reshape(rows, extent)
            np.copyto(mat.reshape(moved.shape), moved)
            krp = _krp_rows(
                [host_factors[k][j0:j1] for k, (j0, j1) in zip(others, combo)],
                krp_scratch,
            )
            np.matmul(mat, krp, out=gemm)
            np.add(out_rows, gemm, out=out_rows)

    parallel_map(run_tile_row, out_ranges, threads=threads)
    observe_inc("blocked_mttkrp.tiles", len(out_ranges) * len(combos))
    observe_inc("blocked_mttkrp.threads", threads)
    return output
