"""Algorithm 4: the parallel general MTTKRP ((N+1)-way grid).

The general algorithm additionally partitions the rank (column) dimension
into ``P_0`` pieces.  One can think of it as running Algorithm 3 on each of
``P_0`` column blocks of the output with ``P / P_0`` processors each — the
price being that the tensor is now also communicated (an All-Gather along the
dimension-0 fiber, Line 3), the benefit being smaller factor-matrix
collectives.  It is more communication-efficient than Algorithm 3 when ``NR``
is large relative to ``I / P`` (Section V-D, Section VI-B).

:class:`GeneralKernel` is Algorithm 4 as a CP-ALS sweep kernel
(``parallel_cp_als(algorithm="general")``): the initial scatter happens once
per run, through the setup shared with Algorithm 3, while the Line-3 fiber
All-Gather is still run and charged on every call, as the algorithm
prescribes.  :func:`general_mttkrp` is the same step run once on a fresh
kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backend.parallel import parallel_map
from repro.core.kernels import local_mttkrp, mttkrp_flops
from repro.parallel.collectives import all_gather, reduce_scatter
from repro.parallel.distribution import (
    DistributedKernel,
    DistributedMTTKRPOutput,
    GeneralDistribution,
    LocalFactorBlock,
    ParallelMTTKRPResult,
)
from repro.parallel.machine import SimulatedMachine


class GeneralKernel(DistributedKernel):
    """Algorithm 4 as a sweep kernel: the tensor is scattered once per run.

    Parameters
    ----------
    grid_dims:
        The ``(N+1)``-way processor grid ``(P_0, P_1, ..., P_N)``; dimension 0
        partitions the rank dimension.  With ``P_0 = 1`` the algorithm
        performs exactly the same communication as Algorithm 3.
    machine, count_local_flops, threads:
        As for :class:`~repro.parallel.stationary.StationaryKernel`: results
        and counted ledgers are bitwise identical for every thread count.
    """

    distribution_class = GeneralDistribution

    def __init__(
        self,
        grid_dims: Sequence[int],
        *,
        machine: Optional[SimulatedMachine] = None,
        count_local_flops: bool = True,
        threads: Optional[int] = None,
    ) -> None:
        super().__init__(grid_dims, machine=machine)
        self.count_local_flops = count_local_flops
        self.threads = threads

    def step(
        self, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> DistributedMTTKRPOutput:
        dist, grid, machine = self.dist, self.grid, self.machine
        ndim = len(dist.shape)
        factor_blocks = [
            None if k == mode else dist.distribute_factor(k, factors[k]) for k in range(ndim)
        ]

        # -- Line 3: All-Gather the sub-tensor along each dimension-0 fiber.
        gathered_tensors: Dict[int, np.ndarray] = {}
        seen_fibers = set()
        for rank in range(grid.n_procs):
            fiber = tuple(dist.tensor_fiber(rank))
            if fiber in seen_fibers:
                continue
            seen_fibers.add(fiber)
            local = {r: self.tensor_blocks[r].data for r in fiber}
            gathered = all_gather(machine, list(fiber), local, axis=0, label="all_gather X fiber")
            for r in fiber:
                ranges = self.tensor_blocks[r].ranges
                shape = tuple(stop - start for start, stop in ranges)
                gathered_tensors[r] = gathered[r].reshape(shape)

        # -- Line 5: All-Gather each factor block within its (p_0, p_k) slice.
        rank_factors: Dict[int, List[Optional[np.ndarray]]] = {
            rank: [None] * ndim for rank in range(grid.n_procs)
        }
        for k in range(ndim):
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
                    rank_factors[r][k] = gathered[r]

        # -- Line 7: local MTTKRP on each rank (columns restricted to T_{p_0}).
        # Pure independent tasks fan out on the thread executor; the machine's
        # counters are charged serially afterwards (see StationaryKernel).
        def run_local(rank: int) -> np.ndarray:
            return local_mttkrp(gathered_tensors[rank], rank_factors[rank], mode)

        results = parallel_map(run_local, range(grid.n_procs), threads=self.threads)
        local_outputs: Dict[int, np.ndarray] = dict(enumerate(results))
        for rank in range(grid.n_procs):
            local_tensor = gathered_tensors[rank]
            cols = len(dist.rank_columns(rank))
            flops = mttkrp_flops(local_tensor.shape, cols) if self.count_local_flops else 0
            self._charge_local(rank, flops, local_tensor, rank_factors[rank], local_outputs[rank])

        # -- Line 8: Reduce-Scatter within each (p_0, p_n) slice.
        output = DistributedMTTKRPOutput(shape=(dist.shape[mode], dist.rank))
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
            output.pieces[rank] = LocalFactorBlock(
                rows=rows, cols=cols, data=scattered_pieces[rank]
            )
        return output


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
    """Run Algorithm 4 once on a simulated machine.

    One :meth:`GeneralKernel.step` on a fresh kernel; use
    :class:`GeneralKernel` to keep the tensor scattered across calls.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor.
    factors:
        One factor matrix per mode; entry for ``mode`` ignored.
    mode:
        Output mode ``n``.
    grid_dims:
        The ``(N+1)``-way processor grid ``(P_0, P_1, ..., P_N)``.
    machine, count_local_flops, threads:
        As for :class:`GeneralKernel`.

    Returns
    -------
    ParallelMTTKRPResult
    """
    kernel = GeneralKernel(
        grid_dims, machine=machine, count_local_flops=count_local_flops, threads=threads
    )
    return kernel.run(tensor, factors, mode)
