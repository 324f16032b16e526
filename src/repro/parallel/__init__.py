"""Distributed-memory MTTKRP algorithms on a simulated machine (Section V-C/D).

The paper's parallel machine model (P processors, private local memories,
communication by sends/receives, collectives costed with bucket algorithms)
is realised by :class:`repro.parallel.machine.SimulatedMachine`: the
algorithms are written in an SPMD style, really move numpy data between
rank-local buffers, and charge every collective the bucket-algorithm
bandwidth cost ``(q - 1) * w`` used in the paper's upper-bound analysis
(Eqs. (14) and (18)).

Provided algorithms:

* :func:`stationary_mttkrp` — Algorithm 3 (N-way processor grid, tensor never
  communicated), and :class:`StationaryKernel`, the same step as a CP-ALS
  sweep kernel that scatters the tensor once per run;
* :func:`general_mttkrp` — Algorithm 4 ((N+1)-way grid, also partitions the
  rank dimension), and its sweep kernel :class:`GeneralKernel`;
* :class:`DistributedDimtreeKernel` — the sweep-aware CP-ALS kernel of
  :mod:`repro.parallel.dimtree` (per-sweep gather caching + per-rank
  dimension trees) that :func:`repro.cp.parallel_cp_als` runs when no kernel
  is named, with its exact ledger predictor; the distributed fused
  sampled kernel of :mod:`repro.sketch.parallel.sampled_dimtree` subclasses
  it.
"""

from repro.parallel.machine import SimulatedMachine, CommunicationRecord
from repro.parallel.grid import ProcessorGrid
from repro.parallel.collectives import (
    all_gather,
    reduce_scatter,
    all_reduce,
    bucket_all_gather_cost,
    bucket_reduce_scatter_cost,
)
from repro.parallel.distribution import (
    StationaryDistribution,
    GeneralDistribution,
    DistributedMTTKRPOutput,
)
from repro.parallel.stationary import StationaryKernel, stationary_mttkrp
from repro.parallel.general import GeneralKernel, general_mttkrp
from repro.parallel.dimtree import (
    DistributedDimtreeKernel,
    predicted_dimtree_ledger,
    predicted_dimtree_sweep_words,
)
from repro.parallel.grid_selection import (
    factorizations,
    choose_stationary_grid,
    choose_general_grid,
    ideal_stationary_grid,
    ideal_general_grid,
)

__all__ = [
    "SimulatedMachine",
    "CommunicationRecord",
    "ProcessorGrid",
    "all_gather",
    "reduce_scatter",
    "all_reduce",
    "bucket_all_gather_cost",
    "bucket_reduce_scatter_cost",
    "StationaryDistribution",
    "GeneralDistribution",
    "DistributedMTTKRPOutput",
    "stationary_mttkrp",
    "StationaryKernel",
    "general_mttkrp",
    "GeneralKernel",
    "DistributedDimtreeKernel",
    "predicted_dimtree_ledger",
    "predicted_dimtree_sweep_words",
    "factorizations",
    "choose_stationary_grid",
    "choose_general_grid",
    "ideal_stationary_grid",
    "ideal_general_grid",
]
