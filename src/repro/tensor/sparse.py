"""COO sparse tensors and the chunked sparse MTTKRP (Section VII direction).

The paper's conclusion names sparse-tensor MTTKRP as the natural extension of
its analysis (the communication requirements then depend on the nonzero
structure).  This module provides the executable substrate for that
direction: a coordinate-format sparse tensor, a *chunked* sparse MTTKRP
kernel that blocks over nonzeros and rank columns (the Tensor Toolbox v3.3
``nzchunk``/``rchunk`` design) with chunk sizes chosen from the sequential
machine model, so sparse experiments layer on the same machinery.

The kernel history matters here: the original implementation materialised a
dense ``(nnz, R)`` contributions array up front (literally
``values[:, None] * np.ones((1, rank))``) and accumulated it with buffered
``np.add.at`` — peak temporary memory ``O(nnz * R)`` and the slowest scatter
NumPy offers, which out-of-memories or crawls at production nonzero counts.
The chunked kernel bounds peak temporaries at ``O(nzchunk * rchunk)`` and
accumulates each chunk at C speed with a per-column ``bincount`` scatter,
while :func:`sparse_mttkrp_unchunked` keeps the single-pass
broadcasting path (no dense temp before the first factor is applied) as the
exact-equality fallback the chunked kernel dispatches to when one chunk
covers everything.  With ``threads > 1`` each nonzero block is a task on the
executor of :mod:`repro.backend.parallel` that allocates its own zeroed
partial accumulator; the calling thread folds the partials in block order,
so the result is bitwise that of the serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.backend.parallel import parallel_map, resolve_threads
from repro.exceptions import ParameterError, ShapeError
from repro.observe.instrument import inc as observe_inc
from repro.utils.validation import (
    check_factor_matrices,
    check_mode,
    check_positive_int,
    check_shape,
    infer_rank,
)


@dataclass
class SparseTensor:
    """An N-way sparse tensor in coordinate (COO) format.

    Attributes
    ----------
    shape:
        Tensor dimensions.
    coords:
        Integer array of shape ``(nnz, N)`` with the multi-indices of the
        stored entries.  Duplicate coordinates are allowed and are treated as
        summed.
    values:
        Float array of shape ``(nnz,)`` with the stored values.
    """

    shape: Tuple[int, ...]
    coords: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.shape = check_shape(self.shape)
        self.coords = np.asarray(self.coords, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] != len(self.shape):
            raise ShapeError(
                f"coords must have shape (nnz, {len(self.shape)}), got {self.coords.shape}"
            )
        if self.values.shape != (self.coords.shape[0],):
            raise ShapeError("values must have one entry per coordinate row")
        for k, dim in enumerate(self.shape):
            if self.coords.size and (self.coords[:, k].min() < 0 or self.coords[:, k].max() >= dim):
                raise ShapeError(f"coordinates out of range for mode {k} (extent {dim})")

    # -- basic properties ----------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of modes."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.values.shape[0])

    def density(self) -> float:
        """Fraction of entries stored (``nnz / prod(shape)``)."""
        total = 1
        for dim in self.shape:
            total *= dim
        return self.nnz / total

    # -- conversions ------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise the dense array (duplicates are summed)."""
        dense = np.zeros(self.shape, dtype=np.float64)
        np.add.at(dense, tuple(self.coords.T), self.values)
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, tolerance: float = 0.0) -> "SparseTensor":
        """Build a COO tensor from the nonzeros of a dense array."""
        dense = np.asarray(dense, dtype=np.float64)
        mask = np.abs(dense) > tolerance
        coords = np.argwhere(mask)
        return cls(shape=dense.shape, coords=coords, values=dense[mask])

    @classmethod
    def random(
        cls,
        shape: Sequence[int],
        density: float,
        *,
        seed=None,
    ) -> "SparseTensor":
        """Uniformly random sparse tensor with approximately ``density`` fill."""
        shape = check_shape(shape)
        if not 0.0 < density <= 1.0:
            raise ParameterError("density must lie in (0, 1]")
        rng = np.random.default_rng(seed)
        total = 1
        for dim in shape:
            total *= dim
        nnz = max(1, int(round(density * total)))
        flat = rng.choice(total, size=min(nnz, total), replace=False)
        coords = np.stack(np.unravel_index(flat, shape), axis=1)
        values = rng.standard_normal(coords.shape[0])
        return cls(shape=shape, coords=coords, values=values)


def _default_chunks(n_modes: int, rank: int, memory_words: Optional[int]) -> Tuple[int, int]:
    """Machine-model chunk sizes (deferred import: sequential layers on tensor)."""
    from repro.sequential.block_size import (
        DEFAULT_SPARSE_CHUNK_MEMORY_WORDS,
        choose_sparse_chunks,
    )

    if memory_words is None:
        memory_words = DEFAULT_SPARSE_CHUNK_MEMORY_WORDS
    return choose_sparse_chunks(n_modes, rank, memory_words)


def _scatter_add_rows(out: np.ndarray, rows: np.ndarray, block: np.ndarray) -> None:
    """Accumulate ``out[rows[i], :] += block[i, :]`` with duplicates summed.

    One ``bincount`` per column: C-speed duplicate-summing accumulation, far
    faster than buffered ``np.add.at`` on the same rows.  The column count is
    the kernel's rchunk, so the loop stays short.  ``out`` may be a writable
    column-slice view.
    """
    minlength = out.shape[0]
    for j in range(block.shape[1]):
        out[:, j] += np.bincount(rows, weights=block[:, j], minlength=minlength)


def sparse_mttkrp_unchunked(
    tensor: SparseTensor, factors: Sequence[Optional[np.ndarray]], mode: int
) -> np.ndarray:
    """Single-pass sparse MTTKRP: one ``(nnz, R)`` contribution array.

    For every stored entry ``x = X(i_1, ..., i_N)`` the kernel accumulates
    ``x * prod_{k != mode} A_k[i_k, :]`` into row ``i_mode`` of the output —
    the sparse analogue of Definition 2.1 (only nonzero N-ary multiplies are
    evaluated); duplicate coordinates sum, per the :class:`SparseTensor`
    contract.  The first factor gather multiplies the values directly, by
    numpy broadcasting (the historical
    ``values[:, None] * np.ones((1, rank))`` dense temp is gone), but the
    contribution array is still ``(nnz, R)`` and the
    scatter is still buffered ``np.add.at`` — this is the reference path the
    chunked kernel falls back to (bitwise) when a single chunk covers the
    whole problem, and the baseline the timed benchmarks race it against.
    """
    mode = check_mode(mode, tensor.ndim)
    rank = infer_rank(factors, mode)
    check_factor_matrices(factors, tensor.shape, rank, skip_mode=mode)

    output = np.zeros((tensor.shape[mode], rank), dtype=np.float64)
    if tensor.nnz == 0:
        return output
    inputs = [k for k in range(tensor.ndim) if k != mode]
    first = inputs[0]
    contributions = tensor.values[:, None] * np.asarray(factors[first])[
        tensor.coords[:, first], :
    ]
    for k in inputs[1:]:
        contributions = contributions * np.asarray(factors[k])[tensor.coords[:, k], :]
    np.add.at(output, tensor.coords[:, mode], contributions)
    return output


def sparse_mttkrp(
    tensor: SparseTensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    *,
    nzchunk: Optional[int] = None,
    rchunk: Optional[int] = None,
    memory_words: Optional[int] = None,
    threads: Optional[int] = None,
) -> np.ndarray:
    """Chunked MTTKRP for a COO sparse tensor (Tensor Toolbox v3.3 design).

    Blocks the accumulation over nonzeros (``nzchunk`` at a time) *and* rank
    columns (``rchunk`` at a time): one chunk iteration gathers the factor
    rows of ``nzchunk`` nonzeros restricted to ``rchunk`` columns, multiplies
    them into a ``(nzchunk, rchunk)`` contribution block, and scatter-adds
    the block into the output with one ``bincount`` per column — peak temporary
    memory is ``O(nzchunk * rchunk)`` regardless of ``nnz`` and ``R``, where
    the unchunked path peaks at ``O(nnz * R)``.

    Parameters
    ----------
    tensor, factors, mode:
        As in :func:`repro.core.kernels.mttkrp`; the entry of ``factors`` at
        ``mode`` is ignored and may be ``None``.  Duplicate coordinates sum.
    nzchunk, rchunk:
        Chunk sizes.  When omitted they are chosen by
        :func:`repro.sequential.block_size.choose_sparse_chunks` from the
        two-level machine model, so the chunk working set fits the fast
        memory ``memory_words``.  ``nzchunk >= nnz`` together with
        ``rchunk >= R`` dispatches to :func:`sparse_mttkrp_unchunked` — the
        exact-equality (bitwise) fallback.
    memory_words:
        Fast-memory budget for the default chunk choice (default:
        :data:`repro.sequential.block_size.DEFAULT_SPARSE_CHUNK_MEMORY_WORDS`).
    threads:
        Thread count for the nonzero-chunk tasks (``None`` consults
        ``REPRO_THREADS``, default 1).  With ``threads > 1`` each z-block
        task scatters into its own freshly zeroed partial accumulator and
        the coordinating thread folds the partials back in submission order
        — bitwise identical to the serial path for every thread count,
        because ``bincount`` already sums each chunk before a single add and
        ``0 + x == x`` exactly.

    Returns
    -------
    numpy.ndarray
        ``(I_mode, R)`` float64 output.
    """
    mode = check_mode(mode, tensor.ndim)
    rank = infer_rank(factors, mode)
    check_factor_matrices(factors, tensor.shape, rank, skip_mode=mode)

    threads = resolve_threads(threads)

    nnz = tensor.nnz
    if nzchunk is None or rchunk is None:
        chosen_nz, chosen_r = _default_chunks(tensor.ndim, rank, memory_words)
        nzchunk = chosen_nz if nzchunk is None else nzchunk
        rchunk = chosen_r if rchunk is None else rchunk
    nzchunk = check_positive_int(nzchunk, "nzchunk")
    rchunk = check_positive_int(rchunk, "rchunk")

    if nnz == 0:
        return np.zeros((tensor.shape[mode], rank), dtype=np.float64)
    if nzchunk >= nnz and rchunk >= rank:
        observe_inc("sparse_mttkrp.fallback")
        return sparse_mttkrp_unchunked(tensor, factors, mode)

    inputs = [k for k in range(tensor.ndim) if k != mode]
    values = tensor.values
    rows = tensor.coords[:, mode]
    columns = {k: tensor.coords[:, k] for k in inputs}
    host_factors = {k: np.asarray(factors[k]) for k in inputs}
    output = np.zeros((tensor.shape[mode], rank), dtype=np.float64)
    first = inputs[0]

    def contribution_block(z0: int, z1: int, r0: int, r1: int):
        block = values[z0:z1, None] * host_factors[first][columns[first][z0:z1], r0:r1]
        for k in inputs[1:]:
            block = block * host_factors[k][columns[k][z0:z1], r0:r1]
        return block

    z_starts = list(range(0, nnz, nzchunk))
    n_chunks = 0
    for r0 in range(0, rank, rchunk):
        r1 = min(r0 + rchunk, rank)
        out_block = output[:, r0:r1]
        n_chunks += len(z_starts)
        if threads == 1 or len(z_starts) == 1:
            for z0 in z_starts:
                z1 = min(z0 + nzchunk, nnz)
                block = contribution_block(z0, z1, r0, r1)
                _scatter_add_rows(out_block, rows[z0:z1], block)
            continue

        def run_zblock(z0: int) -> np.ndarray:
            z1 = min(z0 + nzchunk, nnz)
            block = contribution_block(z0, z1, r0, r1)
            partial = np.zeros((tensor.shape[mode], r1 - r0))
            _scatter_add_rows(partial, rows[z0:z1], block)
            return partial

        # Fold the per-z-block partials in submission (= serial z) order:
        # each partial is exactly its chunk's bincount sums, so the fold
        # replays the serial adds bit for bit, whatever the thread count.
        for partial in parallel_map(run_zblock, z_starts, threads=threads):
            np.add(out_block, partial, out=out_block)
    observe_inc("sparse_mttkrp.chunks", n_chunks)
    observe_inc("sparse_mttkrp.threads", threads)
    return output
