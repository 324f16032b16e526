"""Algorithm 4: the parallel general MTTKRP ((N+1)-way grid).

The general algorithm additionally partitions the rank (column) dimension
into ``P_0`` pieces.  One can think of it as running Algorithm 3 on each of
``P_0`` column blocks of the output with ``P / P_0`` processors each — the
price being that the tensor is now also communicated (an All-Gather along the
dimension-0 fiber, Line 3), the benefit being smaller factor-matrix
collectives.  It is more communication-efficient than Algorithm 3 when ``NR``
is large relative to ``I / P`` (Section V-D, Section VI-B).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backend.parallel import parallel_map
from repro.core.kernels import local_mttkrp, mttkrp_flops
from repro.exceptions import DistributionError
from repro.parallel.collectives import all_gather, reduce_scatter
from repro.parallel.distribution import (
    DistributedMTTKRPOutput,
    GeneralDistribution,
    LocalFactorBlock,
)
from repro.parallel.grid import ProcessorGrid
from repro.parallel.machine import SimulatedMachine
from repro.parallel.stationary import ParallelMTTKRPResult, _infer_rank
from repro.tensor.dense import as_ndarray
from repro.utils.validation import check_mode


def general_mttkrp(
    tensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    grid_dims: Sequence[int],
    *,
    machine: Optional[SimulatedMachine] = None,
    count_local_flops: bool = True,
    threads: Optional[int] = None,
) -> ParallelMTTKRPResult:
    """Run Algorithm 4 on a simulated machine.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor.
    factors:
        One factor matrix per mode; entry for ``mode`` ignored.
    mode:
        Output mode ``n``.
    grid_dims:
        The ``(N+1)``-way processor grid ``(P_0, P_1, ..., P_N)``; dimension 0
        partitions the rank dimension.  With ``P_0 = 1`` the algorithm
        performs exactly the same communication as Algorithm 3.
    machine:
        Optional pre-existing :class:`SimulatedMachine`.
    count_local_flops:
        Charge the atomic-multiply arithmetic cost of the local MTTKRPs.
    threads:
        Thread count for the per-rank local MTTKRPs (``None`` consults
        ``REPRO_THREADS``, default 1); as in
        :func:`~repro.parallel.stationary.stationary_mttkrp`, results and
        counted ledgers are bitwise identical for every thread count.

    Returns
    -------
    ParallelMTTKRPResult
    """
    data = as_ndarray(tensor)
    mode = check_mode(mode, data.ndim)
    grid = ProcessorGrid(grid_dims)
    if len(grid.dims) != data.ndim + 1:
        raise DistributionError(
            f"general_mttkrp needs an (N+1)-way grid; got {len(grid.dims)} dims for N={data.ndim}"
        )
    if machine is None:
        machine = SimulatedMachine(grid.n_procs)
    elif machine.n_procs != grid.n_procs:
        raise DistributionError(
            f"machine has {machine.n_procs} processors but the grid needs {grid.n_procs}"
        )

    dist = GeneralDistribution(data.shape, _infer_rank(factors, mode), mode, grid)
    tensor_blocks, factor_blocks = dist.distribute(data, factors)

    # -- Line 3: All-Gather the sub-tensor along each dimension-0 fiber.
    gathered_tensors: Dict[int, np.ndarray] = {}
    seen_fibers = set()
    for rank in range(grid.n_procs):
        fiber = tuple(dist.tensor_fiber(rank))
        if fiber in seen_fibers:
            continue
        seen_fibers.add(fiber)
        local = {r: tensor_blocks[r].data for r in fiber}
        gathered = all_gather(machine, list(fiber), local, axis=0, label="all_gather X fiber")
        for r in fiber:
            ranges = tensor_blocks[r].ranges
            shape = tuple(stop - start for start, stop in ranges)
            gathered_tensors[r] = gathered[r].reshape(shape)

    # -- Line 5: All-Gather each factor block within its (p_0, p_k) slice.
    gathered_factors: Dict[int, List[Optional[np.ndarray]]] = {
        rank: [None] * data.ndim for rank in range(grid.n_procs)
    }
    for k in range(data.ndim):
        if k == mode:
            continue
        seen_groups = set()
        for rank in range(grid.n_procs):
            group = tuple(dist.factor_group(k, rank))
            if group in seen_groups:
                continue
            seen_groups.add(group)
            local = {r: factor_blocks[k][r].data for r in group}
            gathered = all_gather(
                machine, list(group), local, axis=0, label=f"all_gather A^({k}) block"
            )
            for r in group:
                gathered_factors[r][k] = gathered[r]

    # -- Line 7: local MTTKRP on each rank (columns restricted to T_{p_0}).
    # Pure independent tasks fan out on the thread executor; the machine's
    # counters are charged serially afterwards (see stationary_mttkrp).
    rank_factors: Dict[int, List[Optional[np.ndarray]]] = {}
    for rank in range(grid.n_procs):
        rank_factors[rank] = [
            None if k == mode else gathered_factors[rank][k] for k in range(data.ndim)
        ]

    def run_local(rank: int) -> np.ndarray:
        return local_mttkrp(gathered_tensors[rank], rank_factors[rank], mode)

    results = parallel_map(run_local, range(grid.n_procs), threads=threads)
    local_outputs: Dict[int, np.ndarray] = dict(enumerate(results))
    for rank in range(grid.n_procs):
        local_tensor = gathered_tensors[rank]
        if count_local_flops:
            cols = len(dist.rank_columns(rank))
            machine.charge_flops(rank, mttkrp_flops(local_tensor.shape, max(cols, 1)))
        _charge_general_storage(
            machine, rank, local_tensor, rank_factors[rank], local_outputs[rank]
        )

    # -- Line 8: Reduce-Scatter within each (p_0, p_n) slice.
    output = DistributedMTTKRPOutput(shape=(data.shape[mode], dist.rank))
    seen_groups = set()
    scattered_pieces: Dict[int, np.ndarray] = {}
    for rank in range(grid.n_procs):
        group = tuple(dist.factor_group(mode, rank))
        if group in seen_groups:
            continue
        seen_groups.add(group)
        contributions = {r: local_outputs[r] for r in group}
        scattered = reduce_scatter(
            machine, list(group), contributions, axis=0, label="reduce_scatter B block"
        )
        scattered_pieces.update(scattered)
    for rank in range(grid.n_procs):
        rows = dist.factor_local_rows(mode, rank)
        cols = dist.rank_columns(rank)
        output.pieces[rank] = LocalFactorBlock(rows=rows, cols=cols, data=scattered_pieces[rank])

    return ParallelMTTKRPResult(
        output=output, machine=machine, distribution=dist, grid_dims=tuple(grid.dims)
    )


def _charge_general_storage(
    machine: SimulatedMachine,
    rank: int,
    local_tensor: np.ndarray,
    local_factors: Sequence[Optional[np.ndarray]],
    local_output: np.ndarray,
) -> None:
    """Record the per-rank storage high-water mark (Eq. (20))."""
    words = int(local_tensor.size) + int(local_output.size)
    for factor in local_factors:
        if factor is not None:
            words += int(factor.size)
    machine.charge_storage(rank, words)
