"""Algorithm 3: the parallel stationary-tensor MTTKRP.

Each processor owns one sub-tensor (the tensor is never communicated), gathers
the block rows of the input factor matrices it needs from its grid
hyperslices, performs a *local* MTTKRP, and participates in a Reduce-Scatter
that sums and redistributes the output block rows (Figure 3 of the paper).

The implementation is SPMD-by-simulation: per-rank buffers live in Python
dictionaries, the collectives of :mod:`repro.parallel.collectives` move the
data and charge the bucket-algorithm costs, and the final distributed output
can be reassembled and compared against a single-node reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backend.parallel import parallel_map
from repro.core.kernels import local_mttkrp, mttkrp_flops
from repro.exceptions import DistributionError
from repro.parallel.collectives import all_gather, reduce_scatter
from repro.parallel.distribution import (
    DistributedMTTKRPOutput,
    LocalFactorBlock,
    StationaryDistribution,
)
from repro.parallel.grid import ProcessorGrid
from repro.parallel.machine import SimulatedMachine
from repro.tensor.dense import as_ndarray
from repro.utils.validation import check_mode, infer_rank as _infer_rank


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
    """Run Algorithm 3 on a simulated machine.

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

    Returns
    -------
    ParallelMTTKRPResult
    """
    data = as_ndarray(tensor)
    mode = check_mode(mode, data.ndim)
    grid = ProcessorGrid(grid_dims)
    if machine is None:
        machine = SimulatedMachine(grid.n_procs)
    elif machine.n_procs != grid.n_procs:
        raise DistributionError(
            f"machine has {machine.n_procs} processors but the grid needs {grid.n_procs}"
        )

    dist = StationaryDistribution(data.shape, _infer_rank(factors, mode), mode, grid)
    tensor_blocks, factor_blocks = dist.distribute(data, factors)

    # -- Line 4: All-Gather each input factor matrix's block row within its hyperslice.
    gathered_factors: Dict[int, List[Optional[np.ndarray]]] = {
        rank: [None] * data.ndim for rank in range(grid.n_procs)
    }
    for k in range(data.ndim):
        if k == mode:
            continue
        for pk in range(grid.dims[k]):
            group = grid.slice_group({k: pk})
            local = {rank: factor_blocks[k][rank].data for rank in group}
            gathered = all_gather(
                machine, group, local, axis=0, label=f"all_gather A^({k}) slice p_{k}={pk}"
            )
            for rank in group:
                gathered_factors[rank][k] = gathered[rank]

    # -- Line 6: local MTTKRP on each rank.  Each rank's kernel is a pure,
    # independent task, so the compute fans out on the thread executor;
    # machine counters are charged serially afterwards, keeping the counted
    # ledgers (and the outputs) bitwise independent of the thread count.
    rank_factors: Dict[int, List[Optional[np.ndarray]]] = {}
    for rank in range(grid.n_procs):
        rank_factors[rank] = [
            None if k == mode else gathered_factors[rank][k] for k in range(data.ndim)
        ]

    def run_local(rank: int) -> np.ndarray:
        return local_mttkrp(tensor_blocks[rank].data, rank_factors[rank], mode)

    results = parallel_map(run_local, range(grid.n_procs), threads=threads)
    local_outputs: Dict[int, np.ndarray] = dict(enumerate(results))
    for rank in range(grid.n_procs):
        block = tensor_blocks[rank]
        if count_local_flops:
            machine.charge_flops(rank, mttkrp_flops(block.data.shape, dist.rank))
        _charge_stationary_storage(
            machine, rank, block.data, rank_factors[rank], local_outputs[rank]
        )

    # -- Line 7: Reduce-Scatter within each mode-n hyperslice.
    output = DistributedMTTKRPOutput(shape=(data.shape[mode], dist.rank))
    for pn in range(grid.dims[mode]):
        group = grid.slice_group({mode: pn})
        contributions = {rank: local_outputs[rank] for rank in group}
        scattered = reduce_scatter(
            machine, group, contributions, axis=0, label=f"reduce_scatter B slice p_{mode}={pn}"
        )
        for rank in group:
            rows = dist.factor_local_rows(mode, rank)
            output.pieces[rank] = LocalFactorBlock(
                rows=rows, cols=np.arange(dist.rank), data=scattered[rank]
            )

    return ParallelMTTKRPResult(
        output=output, machine=machine, distribution=dist, grid_dims=tuple(grid.dims)
    )


def _charge_stationary_storage(
    machine: SimulatedMachine,
    rank: int,
    subtensor: np.ndarray,
    local_factors: Sequence[Optional[np.ndarray]],
    local_output: np.ndarray,
) -> None:
    """Record the per-rank storage high-water mark (Eq. (16))."""
    words = int(subtensor.size) + int(local_output.size)
    for factor in local_factors:
        if factor is not None:
            words += int(factor.size)
    machine.charge_storage(rank, words)
