"""Algorithm 3: the parallel stationary-tensor MTTKRP.

Each processor owns one sub-tensor (the tensor is never communicated), gathers
the block rows of the input factor matrices it needs from its grid
hyperslices, performs a *local* MTTKRP, and participates in a Reduce-Scatter
that sums and redistributes the output block rows (Figure 3 of the paper).

The implementation is SPMD-by-simulation: per-rank buffers live in Python
dictionaries, the collectives of :mod:`repro.parallel.collectives` move the
data and charge the bucket-algorithm costs, and the final distributed output
can be reassembled and compared against a single-node reference.

:class:`StationaryKernel` is Algorithm 3 as a CP-ALS sweep kernel (what
``parallel_cp_als(kernel="exact")`` runs): it scatters the tensor once per
run through the shared setup of
:class:`~repro.parallel.distribution.DistributedKernel`, so only factor rows
and outputs move between MTTKRPs, as the paper's stationary tensor implies.
:func:`stationary_mttkrp` is the same step run once on a fresh kernel.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.backend.parallel import parallel_map
from repro.core.kernels import local_mttkrp, mttkrp_flops
from repro.parallel.collectives import all_gather, reduce_scatter
from repro.parallel.distribution import (
    DistributedKernel,
    DistributedMTTKRPOutput,
    LocalFactorBlock,
    ParallelMTTKRPResult,
    StationaryDistribution,
)
from repro.parallel.machine import SimulatedMachine


def reduce_scatter_output(
    machine: SimulatedMachine,
    dist: StationaryDistribution,
    local_outputs: Dict[int, np.ndarray],
    mode: int,
    label: Callable[[int], str],
) -> DistributedMTTKRPOutput:
    """Line 7: Reduce-Scatter the local outputs within each mode-``mode`` hyperslice.

    ``label(p_n)`` names the collective of hyperslice ``p_n``.
    """
    output = DistributedMTTKRPOutput(shape=(dist.shape[mode], dist.rank))
    for pn in range(dist.grid.dims[mode]):
        group = dist.grid.slice_group({mode: pn})
        scattered = reduce_scatter(
            machine, group, {r: local_outputs[r] for r in group}, axis=0, label=label(pn)
        )
        for r in group:
            output.pieces[r] = LocalFactorBlock(
                rows=dist.factor_local_rows(mode, r),
                cols=np.arange(dist.rank),
                data=scattered[r],
            )
    return output


class StationaryKernel(DistributedKernel):
    """Algorithm 3 as a sweep kernel: the tensor is scattered once per run.

    Parameters
    ----------
    grid_dims:
        The ``N``-way processor grid ``(P_1, ..., P_N)``.
    machine:
        Optional pre-existing :class:`SimulatedMachine` (must have
        ``prod(grid_dims)`` processors); a fresh one is created otherwise.
    count_local_flops:
        Charge the atomic-multiply arithmetic cost of the local MTTKRPs to the
        machine's per-rank flop counters.
    threads:
        Thread count for the per-rank local MTTKRPs (``None`` consults
        ``REPRO_THREADS``, default 1).  Each simulated rank's local kernel
        is an independent task writing its own output slot, and the
        machine's counters are charged serially afterwards — results and
        counted ledgers are bitwise identical for every thread count.
    """

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

        # -- Line 4: All-Gather each input factor matrix's block row within its hyperslice.
        rank_factors: Dict[int, List[Optional[np.ndarray]]] = {
            rank: [None] * ndim for rank in range(grid.n_procs)
        }
        for k in range(ndim):
            if k == mode:
                continue
            for pk in range(grid.dims[k]):
                group = grid.slice_group({k: pk})
                local = {rank: factor_blocks[k][rank].data for rank in group}
                gathered = all_gather(
                    machine, group, local, axis=0, label=f"all_gather A^({k}) slice p_{k}={pk}"
                )
                for rank in group:
                    rank_factors[rank][k] = gathered[rank]

        # -- Line 6: local MTTKRP on each rank.  Each rank's kernel is a pure,
        # independent task, so the compute fans out on the thread executor;
        # machine counters are charged serially afterwards, keeping the counted
        # ledgers (and the outputs) bitwise independent of the thread count.
        def run_local(rank: int) -> np.ndarray:
            return local_mttkrp(self.tensor_blocks[rank].data, rank_factors[rank], mode)

        results = parallel_map(run_local, range(grid.n_procs), threads=self.threads)
        local_outputs: Dict[int, np.ndarray] = dict(enumerate(results))
        for rank in range(grid.n_procs):
            block = self.tensor_blocks[rank].data
            flops = mttkrp_flops(block.shape, dist.rank) if self.count_local_flops else 0
            self._charge_local(rank, flops, block, rank_factors[rank], local_outputs[rank])

        # -- Line 7: Reduce-Scatter within each mode-n hyperslice.
        return reduce_scatter_output(
            machine, dist, local_outputs, mode, lambda pn: f"reduce_scatter B slice p_{mode}={pn}"
        )


def stationary_mttkrp(
    tensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    grid_dims: Sequence[int],
    *,
    machine: Optional[SimulatedMachine] = None,
    count_local_flops: bool = True,
    threads: Optional[int] = None,
) -> ParallelMTTKRPResult:
    """Run Algorithm 3 once on a simulated machine.

    One :meth:`StationaryKernel.step` on a fresh kernel, so the tensor is
    scattered for this call alone; use :class:`StationaryKernel` to keep it
    scattered across calls.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor (held globally only to set up the distribution;
        the algorithm itself only touches per-rank shares).
    factors:
        One factor matrix per mode; entry for ``mode`` ignored.
    mode:
        Output mode ``n``.
    grid_dims:
        The ``N``-way processor grid ``(P_1, ..., P_N)``.
    machine, count_local_flops, threads:
        As for :class:`StationaryKernel`.

    Returns
    -------
    ParallelMTTKRPResult
    """
    kernel = StationaryKernel(
        grid_dims, machine=machine, count_local_flops=count_local_flops, threads=threads
    )
    return kernel.run(tensor, factors, mode)
