"""Distributed-memory sampled MTTKRP, measured.

PR 1's :mod:`repro.sketch` established the randomized route around the
paper's communication lower bounds but only *modelled* the parallel savings;
this subpackage executes the sampled kernels on the simulated
distributed-memory machine of :mod:`repro.parallel`, so every sampled word is
charged to a per-rank ledger instead of a formula:

* :mod:`repro.sketch.parallel.distribution` — the sample-index layer: which
  ranks own which drawn Khatri-Rao rows under the stationary grid/block
  distribution, and sampled-grid selection;
* :mod:`repro.sketch.parallel.sampled_mttkrp` — the distributed sampled
  MTTKRP of a dense tensor: bucket All-Gathers of only the *sampled*
  factor-row blocks, local sampled GEMMs on owned fiber segments, and an
  output Reduce-Scatter, with rank-consistent seeding that reproduces the
  sequential kernel's draws bit for bit;
* :mod:`repro.sketch.parallel.reconcile` — measured-vs-modelled
  reconciliation: ledger word counts against the exact collective-replay
  predictor, the closed-form sketch cost model, the measured exact
  algorithm, and the paper's parallel lower bounds;
* :mod:`repro.sketch.parallel.sampled_dimtree` — the distributed fused
  sampled-dimtree kernel: the dimtree kernel of :mod:`repro.parallel.dimtree`
  (a subclass of it) plus a Gram All-Reduce per factor gather and a sampled
  local step, with the dimtree ledger replay plus those All-Reduces.

Distributed sketched CP-ALS is :func:`repro.cp.parallel_als.parallel_cp_als`
with ``kernel="sampled"``, ``"sampled-tree"`` or ``"sampled-dimtree"``.
"""

from repro.sketch.parallel.distribution import (
    SampleAssignment,
    choose_sampled_grid,
    sampled_grid_cost,
)
from repro.sketch.parallel.sampled_mttkrp import (
    ParallelSampledMTTKRPResult,
    charge_sampling_setup,
    parallel_sampled_mttkrp,
)
from repro.sketch.parallel.reconcile import (
    ReconciledSampledRun,
    predicted_sampled_ledger,
    reconcile_sampled_mttkrp,
)
from repro.sketch.parallel.sampled_dimtree import (
    DistributedSampledDimtreeKernel,
    predicted_sampled_dimtree_ledger,
)

__all__ = [
    "SampleAssignment",
    "choose_sampled_grid",
    "sampled_grid_cost",
    "ParallelSampledMTTKRPResult",
    "charge_sampling_setup",
    "parallel_sampled_mttkrp",
    "ReconciledSampledRun",
    "predicted_sampled_ledger",
    "reconcile_sampled_mttkrp",
    "DistributedSampledDimtreeKernel",
    "predicted_sampled_dimtree_ledger",
]
