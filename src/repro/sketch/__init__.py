"""Randomized/sampled MTTKRP: trading accuracy for communication.

The paper's lower bounds hold for *exact* MTTKRP, where every point of the
iteration space is evaluated.  This subpackage implements the randomized
route around those bounds:

* :mod:`repro.sketch.sampling` — row-sampling distributions over the
  Khatri-Rao product (uniform, exact leverage scores, and the
  product-of-factor-leverage approximation of Bharadwaj et al., 2023);
* :mod:`repro.sketch.sampled_mttkrp` — the sampled MTTKRP kernel, which
  materializes only the distinct drawn Khatri-Rao rows and matching fibers
  of a dense tensor (the per-call step of sketched CP-ALS);
* :mod:`repro.sketch.treesample` — the segment-tree exact Khatri-Rao
  leverage sampler of Bharadwaj et al. (``distribution="tree-leverage"``):
  exact leverage draws in ``O(R^2 log I_k)`` per draw without materializing
  the Khatri-Rao product, dropping both the sequential "read every score"
  setup and the distributed leverage-score gather;
* :mod:`repro.sketch.costmodel` — word costs of the sampled kernel,
  sequential and per processor, parameterized by sample count, and the
  crossover sample count against the words of the paper's optimal blocked
  algorithm (Eq. (13));
* :mod:`repro.sketch.parallel` — the distributed-memory subsystem: the
  sampled MTTKRP executed on the simulated machine of :mod:`repro.parallel`,
  so sampled word counts are *measured* on per-rank ledgers (and reconciled
  against this cost model) rather than modelled.

Sketched CP-ALS (CP-ARLS-LEV in Bharadwaj et al.) is the ALS driver on a
sampled kernel, resampled on every MTTKRP: ``cp_als(kernel="sampled")`` or
``"sampled-tree"``, which build
:class:`~repro.core.sampled_dimtree.SampledDimtreeKernel` with
``cache=False`` (construct one directly for another draw count or
distribution), and ``parallel_cp_als(kernel="sampled")`` on the simulated
machine.

Accuracy is a tunable resource here: every entry point exposes the sample
count / sketch size that trades estimator variance against words moved.
"""

from repro.sketch.sampling import (
    DISTRIBUTIONS,
    SampleSet,
    draw_krp_samples,
    factor_leverage_distribution,
    krp_leverage_scores,
    krp_row_distribution,
    leverage_scores,
)
from repro.sketch.sampled_mttkrp import (
    SampledMTTKRPReport,
    default_sample_count,
    sampled_mttkrp,
)
from repro.sketch.treesample import (
    TREE_DISTRIBUTION,
    GramSegmentTree,
    KRPTreeSampler,
    tree_joint_distribution,
)
from repro.sketch.costmodel import (
    crossover_sample_count,
    optimal_sample_grid,
    parallel_sampled_words,
    sampled_mttkrp_words,
    sampling_setup_words,
)
from repro.sketch.parallel import (
    DistributedSampledDimtreeKernel,
    ParallelSampledMTTKRPResult,
    ReconciledSampledRun,
    SampleAssignment,
    choose_sampled_grid,
    parallel_sampled_mttkrp,
    predicted_sampled_dimtree_ledger,
    predicted_sampled_ledger,
    reconcile_sampled_mttkrp,
)

__all__ = [
    "DISTRIBUTIONS",
    "SampleSet",
    "draw_krp_samples",
    "factor_leverage_distribution",
    "krp_leverage_scores",
    "krp_row_distribution",
    "leverage_scores",
    "SampledMTTKRPReport",
    "default_sample_count",
    "sampled_mttkrp",
    "TREE_DISTRIBUTION",
    "GramSegmentTree",
    "KRPTreeSampler",
    "tree_joint_distribution",
    "crossover_sample_count",
    "optimal_sample_grid",
    "parallel_sampled_words",
    "sampled_mttkrp_words",
    "sampling_setup_words",
    "ParallelSampledMTTKRPResult",
    "ReconciledSampledRun",
    "SampleAssignment",
    "choose_sampled_grid",
    "parallel_sampled_mttkrp",
    "predicted_sampled_ledger",
    "reconcile_sampled_mttkrp",
    "DistributedSampledDimtreeKernel",
    "predicted_sampled_dimtree_ledger",
]
