"""Data distributions for the parallel MTTKRP algorithms (Sections V-C1 and V-D1).

Both algorithms use the same family of distributions:

* every tensor dimension ``k`` is block-partitioned into ``P_k`` contiguous
  index sets ``S^(k)_{p_k}``;
* (Algorithm 4 only) the rank dimension ``[R]`` is block-partitioned into
  ``P_0`` sets ``T_{p_0}``;
* each processor owns the sub-tensor indexed by its grid coordinates
  (Algorithm 3) or a 1/P_0 share of it (Algorithm 4);
* the block row ``A^(k)(S^(k)_{p_k}, :)`` (resp. the block
  ``A^(k)(S^(k)_{p_k}, T_{p_0})``) of each factor matrix is partitioned by
  rows across the processors of the corresponding hyperslice, so that exactly
  one copy of every input is stored across the machine;
* the output ``B^(n)`` ends up distributed the same way as an input factor
  matrix for mode ``n`` would be.

The classes below compute all of those index sets, scatter a concrete tensor
and factor matrices into per-rank local buffers, and reassemble the
distributed output for verification.

A tensor scatter writes every rank's block into **one backing buffer** the
size of the tensor, each block a C-contiguous slab of it, bytewise equal to
a separate copy of the rank's slice.  The distributed sweep kernels keep
those blocks for a whole ALS run, and in measurement (240^3 on four ranks)
separately allocated per-rank copies raised the run's resident peak past
the benchmark's memory bound while one buffer, allocated and released as a
whole, left it unchanged.

:class:`DistributedKernel` is the one setup path of those kernels
(Algorithms 3 and 4 and the distributed dimension trees): the grid and
machine checks, :func:`check_block_extents`, the scatter — once per
(tensor object, rank) — and the per-rank storage charge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.sweep_kernel import SweepKernel
from repro.exceptions import DistributionError
from repro.observe.instrument import inc as observe_inc
from repro.parallel.grid import ProcessorGrid
from repro.parallel.machine import SimulatedMachine
from repro.tensor.dense import as_ndarray
from repro.utils.partition import partition_bounds
from repro.utils.validation import check_mode, check_rank, check_shape, infer_rank


# ---------------------------------------------------------------------------
# local data containers
# ---------------------------------------------------------------------------

@dataclass
class LocalTensorBlock:
    """A rank's share of the tensor.

    Attributes
    ----------
    ranges:
        Per-mode global half-open index ranges of the sub-tensor this share
        belongs to.
    data:
        For Algorithm 3: the full sub-tensor.  For Algorithm 4: a 1-D slice of
        the flattened (C-order) sub-tensor.
    flat_range:
        For Algorithm 4: the half-open range of flattened positions owned.
        ``None`` for Algorithm 3.
    """

    ranges: Tuple[Tuple[int, int], ...]
    data: np.ndarray
    flat_range: Optional[Tuple[int, int]] = None


@dataclass
class LocalFactorBlock:
    """A rank's share of one factor matrix (or of the output).

    Attributes
    ----------
    rows:
        Global row indices owned (a contiguous range, stored explicitly).
    cols:
        Global column indices owned (the full ``range(R)`` for Algorithm 3).
    data:
        The local sub-matrix of shape ``(len(rows), len(cols))``.
    """

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray

    @property
    def words(self) -> int:
        """Number of entries stored locally."""
        return int(self.data.size)


@dataclass
class DistributedMTTKRPOutput:
    """The distributed output of a parallel MTTKRP and its reassembly.

    Attributes
    ----------
    shape:
        Global output shape ``(I_n, R)``.
    pieces:
        Mapping rank -> :class:`LocalFactorBlock` with that rank's rows/cols.
    """

    shape: Tuple[int, int]
    pieces: Dict[int, LocalFactorBlock] = field(default_factory=dict)

    def assemble(self) -> np.ndarray:
        """Assemble the global output matrix, checking single coverage.

        Raises :class:`~repro.exceptions.DistributionError` if any entry is
        assigned by more than one rank or not assigned at all.
        """
        result = np.zeros(self.shape, dtype=np.float64)
        coverage = np.zeros(self.shape, dtype=np.int64)
        for rank, piece in self.pieces.items():
            if piece.data.size == 0:
                continue
            rows = np.asarray(piece.rows, dtype=np.intp)
            cols = np.asarray(piece.cols, dtype=np.intp)
            result[np.ix_(rows, cols)] = piece.data
            coverage[np.ix_(rows, cols)] += 1
        if np.any(coverage > 1):
            raise DistributionError("output entries assigned by more than one rank")
        if np.any(coverage == 0):
            raise DistributionError("some output entries were not assigned by any rank")
        return result

    def max_local_words(self) -> int:
        """Largest per-rank output share (the ``nnz(B_p)`` of Eqs. (14)/(18))."""
        if not self.pieces:
            return 0
        return max(piece.words for piece in self.pieces.values())


def _copy_subtensors(
    tensor, shape: Tuple[int, ...], ranges: Sequence[Tuple[Tuple[int, int], ...]]
) -> List[np.ndarray]:
    """Copy the sub-tensors ``tensor[ranges[i]]`` into consecutive slabs of one buffer.

    ``ranges`` must partition the tensor, so the buffer is exactly its size
    (see the module docstring for why it is one buffer).  Each slab is a
    C-contiguous view holding the same bytes as ``tensor[ranges[i]].copy()``.
    """
    data = as_ndarray(tensor)
    if data.shape != shape:
        raise DistributionError(f"tensor shape {data.shape} does not match {shape}")
    buffer = np.empty(data.size, dtype=data.dtype)
    slabs: List[np.ndarray] = []
    offset = 0
    for block in ranges:
        extents = tuple(stop - start for start, stop in block)
        slab = buffer[offset : offset + int(np.prod(extents, dtype=np.int64))].reshape(extents)
        slab[...] = data[tuple(slice(start, stop) for start, stop in block)]
        slabs.append(slab)
        offset += slab.size
    return slabs


def check_block_extents(shape: Sequence[int], rank: int, grid_dims: Sequence[int]) -> None:
    """Reject a grid that splits a dimension into more parts than it has indices.

    Such a grid leaves some rank an empty tensor block (or, for Algorithm 4's
    ``(N+1)``-way grid, whose dimension 0 splits the rank, an empty column
    set), which the exact kernels cannot run on.  Raises
    :class:`~repro.exceptions.DistributionError` naming the dimension, its
    extent and the grid.
    """
    grid_dims = tuple(int(p) for p in grid_dims)
    extents = [(f"mode {k}", int(n)) for k, n in enumerate(shape)]
    if len(grid_dims) == len(extents) + 1:
        extents.insert(0, ("the rank dimension", int(rank)))
    for (name, extent), parts in zip(extents, grid_dims):
        if parts > extent:
            raise DistributionError(
                f"grid {grid_dims} splits {name} (extent {extent}) into {parts} parts; "
                "every part needs at least one index"
            )


# ---------------------------------------------------------------------------
# Algorithm 3 distribution (N-way grid, stationary tensor)
# ---------------------------------------------------------------------------

class StationaryDistribution:
    """Data distribution of the stationary-tensor algorithm (Section V-C1).

    Parameters
    ----------
    shape:
        Tensor dimensions ``(I_1, ..., I_N)``.
    rank:
        Number of factor-matrix columns ``R``.
    mode:
        Output mode ``n``.
    grid:
        An ``N``-way :class:`ProcessorGrid` (one grid dimension per tensor
        mode).
    """

    def __init__(self, shape: Sequence[int], rank: int, mode: int, grid: ProcessorGrid) -> None:
        self.shape = check_shape(shape, min_ndim=2)
        self.rank = check_rank(rank)
        self.mode = check_mode(mode, len(self.shape))
        if len(grid.dims) != len(self.shape):
            raise DistributionError(
                f"grid must have one dimension per tensor mode: got {len(grid.dims)} "
                f"grid dims for a {len(self.shape)}-way tensor"
            )
        self.grid = grid
        #: per-mode partitions S^(k): list of (start, stop) per grid coordinate
        self.mode_partitions: List[List[Tuple[int, int]]] = [
            partition_bounds(self.shape[k], grid.dims[k]) for k in range(len(self.shape))
        ]

    # -- index sets ------------------------------------------------------------
    def subtensor_ranges(self, rank_id: int) -> Tuple[Tuple[int, int], ...]:
        """Global index ranges of the sub-tensor owned by ``rank_id``."""
        coords = self.grid.coords(rank_id)
        return tuple(self.mode_partitions[k][coords[k]] for k in range(len(self.shape)))

    def factor_hyperslice(self, k: int, rank_id: int) -> List[int]:
        """Communicator over which mode ``k``'s block row is gathered/reduced."""
        return self.grid.hyperslice(k, rank_id)

    def factor_local_rows(self, k: int, rank_id: int) -> np.ndarray:
        """Global rows of ``A^(k)`` (or of ``B^(n)`` when ``k == mode``) owned by ``rank_id``.

        The block row ``S^(k)_{p_k}`` is split into balanced contiguous chunks
        across the hyperslice members (in rank order); ``rank_id`` owns the
        chunk at its position in that hyperslice.
        """
        coords = self.grid.coords(rank_id)
        block_start, block_stop = self.mode_partitions[k][coords[k]]
        group = self.factor_hyperslice(k, rank_id)
        position = self.grid.position_in_group(rank_id, group)
        local_start, local_stop = partition_bounds(block_stop - block_start, len(group))[position]
        return np.arange(block_start + local_start, block_start + local_stop)

    # -- scattering ---------------------------------------------------------------
    def distribute_tensor(self, tensor) -> Dict[int, LocalTensorBlock]:
        """Scatter the tensor: each rank owns its full sub-tensor (one copy overall).

        Every block is a C-contiguous slab of one buffer (:func:`_copy_subtensors`).
        """
        ranges = [self.subtensor_ranges(rank_id) for rank_id in range(self.grid.n_procs)]
        slabs = _copy_subtensors(tensor, self.shape, ranges)
        return {
            rank_id: LocalTensorBlock(ranges=ranges[rank_id], data=slabs[rank_id])
            for rank_id in range(self.grid.n_procs)
        }

    def distribute_factor(self, k: int, factor: np.ndarray) -> Dict[int, LocalFactorBlock]:
        """Scatter factor matrix ``A^(k)`` row-wise (one copy overall)."""
        factor = np.asarray(factor)
        expected = (self.shape[k], self.rank)
        if factor.shape != expected:
            raise DistributionError(
                f"factor matrix for mode {k} must have shape {expected}, got {factor.shape}"
            )
        out: Dict[int, LocalFactorBlock] = {}
        cols = np.arange(self.rank)
        for rank_id in range(self.grid.n_procs):
            rows = self.factor_local_rows(k, rank_id)
            out[rank_id] = LocalFactorBlock(rows=rows, cols=cols, data=factor[rows, :].copy())
        return out

    # -- balance diagnostics -------------------------------------------------------
    def max_tensor_words(self) -> int:
        """Largest per-rank tensor share (the γ-balance quantity of the bounds)."""
        best = 0
        for rank_id in range(self.grid.n_procs):
            ranges = self.subtensor_ranges(rank_id)
            words = 1
            for start, stop in ranges:
                words *= stop - start
            best = max(best, words)
        return best

    def max_factor_words(self) -> int:
        """Largest per-rank total factor-matrix share (the δ-balance quantity)."""
        best = 0
        for rank_id in range(self.grid.n_procs):
            words = 0
            for k in range(len(self.shape)):
                words += len(self.factor_local_rows(k, rank_id)) * self.rank
            best = max(best, words)
        return best


# ---------------------------------------------------------------------------
# Algorithm 4 distribution ((N+1)-way grid)
# ---------------------------------------------------------------------------

class GeneralDistribution:
    """Data distribution of the general algorithm (Section V-D1).

    Grid dimension 0 partitions the rank (column) dimension; grid dimension
    ``k + 1`` partitions tensor mode ``k``.

    Parameters
    ----------
    shape, rank, mode:
        Problem dimensions and output mode.
    grid:
        An ``(N+1)``-way :class:`ProcessorGrid`.
    """

    def __init__(self, shape: Sequence[int], rank: int, mode: int, grid: ProcessorGrid) -> None:
        self.shape = check_shape(shape, min_ndim=2)
        self.rank = check_rank(rank)
        self.mode = check_mode(mode, len(self.shape))
        if len(grid.dims) != len(self.shape) + 1:
            raise DistributionError(
                f"grid must have N+1={len(self.shape) + 1} dimensions, got {len(grid.dims)}"
            )
        self.grid = grid
        #: partitions of each tensor mode over grid dims 1..N
        self.mode_partitions: List[List[Tuple[int, int]]] = [
            partition_bounds(self.shape[k], grid.dims[k + 1]) for k in range(len(self.shape))
        ]
        #: partition of the rank dimension over grid dim 0
        self.rank_partition: List[Tuple[int, int]] = partition_bounds(self.rank, grid.dims[0])

    # -- index sets ------------------------------------------------------------
    def subtensor_ranges(self, rank_id: int) -> Tuple[Tuple[int, int], ...]:
        """Global index ranges of the sub-tensor ``X_{p_1..p_N}`` this rank contributes to."""
        coords = self.grid.coords(rank_id)
        return tuple(self.mode_partitions[k][coords[k + 1]] for k in range(len(self.shape)))

    def tensor_fiber(self, rank_id: int) -> List[int]:
        """The ``P_0`` processors sharing this rank's sub-tensor (Line 3 communicator)."""
        return self.grid.fiber(0, rank_id)

    def rank_columns(self, rank_id: int) -> np.ndarray:
        """Global columns ``T_{p_0}`` owned by this rank."""
        coords = self.grid.coords(rank_id)
        start, stop = self.rank_partition[coords[0]]
        return np.arange(start, stop)

    def factor_group(self, k: int, rank_id: int) -> List[int]:
        """Communicator for mode ``k``'s block: fixed ``p_0`` and fixed ``p_k``."""
        return self.grid.joint_slice([0, k + 1], rank_id)

    def factor_local_rows(self, k: int, rank_id: int) -> np.ndarray:
        """Global rows of mode ``k``'s block owned by this rank (balanced chunk)."""
        coords = self.grid.coords(rank_id)
        block_start, block_stop = self.mode_partitions[k][coords[k + 1]]
        group = self.factor_group(k, rank_id)
        position = self.grid.position_in_group(rank_id, group)
        local_start, local_stop = partition_bounds(block_stop - block_start, len(group))[position]
        return np.arange(block_start + local_start, block_start + local_stop)

    # -- scattering ---------------------------------------------------------------
    def distribute_tensor(self, tensor) -> Dict[int, LocalTensorBlock]:
        """Scatter the tensor: each sub-tensor is shared by its ``P_0`` fiber (one copy overall).

        Each sub-tensor is copied once, into a C-contiguous slab of one buffer
        (:func:`_copy_subtensors`); its fiber's ranks own consecutive pieces
        of the slab's C-order flattening.
        """
        # The first rank of each fiber has p_0 = 0: the ranks before P / P_0.
        firsts = range(self.grid.n_procs // self.grid.dims[0])
        fibers = [self.tensor_fiber(rank_id) for rank_id in firsts]
        ranges = [self.subtensor_ranges(rank_id) for rank_id in firsts]
        slabs = _copy_subtensors(tensor, self.shape, ranges)
        out: Dict[int, LocalTensorBlock] = {}
        for fiber, block_ranges, slab in zip(fibers, ranges, slabs):
            flat = slab.reshape(-1)
            for rank_id, (start, stop) in zip(fiber, partition_bounds(flat.size, len(fiber))):
                out[rank_id] = LocalTensorBlock(
                    ranges=block_ranges, data=flat[start:stop], flat_range=(start, stop)
                )
        return {rank_id: out[rank_id] for rank_id in range(self.grid.n_procs)}

    def distribute_factor(self, k: int, factor: np.ndarray) -> Dict[int, LocalFactorBlock]:
        """Scatter factor matrix ``A^(k)``: each rank owns a row-chunk of its ``(S_k, T_{p_0})`` block."""
        factor = np.asarray(factor)
        expected = (self.shape[k], self.rank)
        if factor.shape != expected:
            raise DistributionError(
                f"factor matrix for mode {k} must have shape {expected}, got {factor.shape}"
            )
        out: Dict[int, LocalFactorBlock] = {}
        for rank_id in range(self.grid.n_procs):
            rows = self.factor_local_rows(k, rank_id)
            cols = self.rank_columns(rank_id)
            out[rank_id] = LocalFactorBlock(
                rows=rows, cols=cols, data=factor[np.ix_(rows, cols)].copy()
            )
        return out

    # -- balance diagnostics --------------------------------------------------------
    def max_tensor_words(self) -> int:
        """Largest per-rank tensor share."""
        best = 0
        for rank_id in range(self.grid.n_procs):
            ranges = self.subtensor_ranges(rank_id)
            words = 1
            for start, stop in ranges:
                words *= stop - start
            fiber = self.tensor_fiber(rank_id)
            position = self.grid.position_in_group(rank_id, fiber)
            start, stop = partition_bounds(words, len(fiber))[position]
            best = max(best, stop - start)
        return best

    def max_factor_words(self) -> int:
        """Largest per-rank total factor-matrix share."""
        best = 0
        for rank_id in range(self.grid.n_procs):
            cols = len(self.rank_columns(rank_id))
            words = 0
            for k in range(len(self.shape)):
                words += len(self.factor_local_rows(k, rank_id)) * cols
            best = max(best, words)
        return best


# ---------------------------------------------------------------------------
# the setup path shared by the distributed sweep kernels
# ---------------------------------------------------------------------------

@dataclass
class ParallelMTTKRPResult:
    """Result of a simulated parallel MTTKRP run.

    Attributes
    ----------
    output:
        The distributed output (reassemble with ``output.assemble()``).
    machine:
        The simulated machine holding per-rank communication counters.
    distribution:
        The data distribution object used (stationary or general).
    grid_dims:
        The processor grid extents used.
    """

    output: DistributedMTTKRPOutput
    machine: SimulatedMachine
    distribution: object
    grid_dims: Sequence[int]

    @property
    def max_words_communicated(self) -> int:
        """Critical-path words (max over ranks of max(sent, received))."""
        return self.machine.max_words_communicated

    def assemble(self) -> np.ndarray:
        """Assemble the global output matrix."""
        return self.output.assemble()


class DistributedKernel(SweepKernel):
    """The one setup path of the distributed MTTKRP kernels.

    Algorithm 3 (:class:`~repro.parallel.stationary.StationaryKernel`),
    Algorithm 4 (:class:`~repro.parallel.general.GeneralKernel`) and the
    distributed dimension tree
    (:class:`~repro.parallel.dimtree.DistributedDimtreeKernel`) share it.
    The constructor checks the grid against the machine; :meth:`setup`
    builds the distribution, checks every block is non-empty
    (:func:`check_block_extents`) and scatters the tensor — once per
    (tensor object, rank), so across an ALS run the stationary tensor is
    copied once, as in the paper, not once per MTTKRP.  The blocks are
    derived data: checkpoints do not capture them (a resumed run re-scatters
    from the tensor), and a retry has nothing to refresh in a copy of a
    finite input, so :meth:`invalidate_caches` stays ``False``.

    Subclasses set :attr:`distribution_class` and implement :meth:`step`,
    one MTTKRP on the scattered blocks.
    """

    distribution_class = StationaryDistribution

    def __init__(
        self, grid_dims: Sequence[int], *, machine: Optional[SimulatedMachine] = None
    ) -> None:
        self.grid = ProcessorGrid(grid_dims)
        if machine is None:
            machine = SimulatedMachine(self.grid.n_procs)
        elif machine.n_procs != self.grid.n_procs:
            raise DistributionError(
                f"machine has {machine.n_procs} processors but the grid needs "
                f"{self.grid.n_procs}"
            )
        self.machine = machine
        self.dist = None
        self.tensor_blocks: Dict[int, LocalTensorBlock] = {}
        self._tensor: Optional[np.ndarray] = None

    @property
    def state_kind(self) -> str:
        return f"{type(self).__name__} on grid {self.grid.dims}"

    def setup(self, data: np.ndarray, rank: int, mode: int = 0) -> bool:
        """Scatter ``data`` for ``rank`` unless done; return whether it (re)built."""
        if self.dist is not None and self._tensor is data and self.dist.rank == rank:
            return False
        dist = self.distribution_class(data.shape, rank, mode, self.grid)
        check_block_extents(data.shape, rank, self.grid.dims)
        self.tensor_blocks = dist.distribute_tensor(data)
        self.dist, self._tensor = dist, data
        observe_inc("parallel.tensor_scatter")
        return True

    def step(
        self, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> DistributedMTTKRPOutput:
        """One MTTKRP on the scattered blocks."""
        raise NotImplementedError

    def run(
        self, tensor, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> ParallelMTTKRPResult:
        """Set up for ``tensor`` if needed, then run one :meth:`step`."""
        data = as_ndarray(tensor)
        mode = check_mode(mode, data.ndim)
        self.setup(data, infer_rank(factors, mode), mode)
        output = self.step(factors, mode)
        return ParallelMTTKRPResult(
            output=output, machine=self.machine, distribution=self.dist, grid_dims=self.grid.dims
        )

    def mttkrp(
        self, tensor, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> np.ndarray:
        return self.run(tensor, factors, mode).assemble()

    def _charge_local(
        self,
        r: int,
        flops: int,
        tensor: np.ndarray,
        local_factors: Sequence[Optional[np.ndarray]],
        output: np.ndarray,
        cached_words: int = 0,
    ) -> None:
        """Charge rank ``r``'s local flops and its storage high-water mark.

        Held words (Eqs. (16) and (20)): the local tensor, the gathered
        factor blocks, the local output, and ``cached_words`` of reused
        partial contractions.
        """
        self.machine.charge_flops(r, flops)
        words = int(tensor.size) + int(output.size) + cached_words
        for block in local_factors:
            if block is not None:
                words += int(block.size)
        self.machine.charge_storage(r, words)
