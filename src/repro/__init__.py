"""repro — Communication-optimal MTTKRP (Ballard, Knight, Rouse; IPDPS 2018).

A reproduction of *"Communication Lower Bounds for Matricized Tensor Times
Khatri-Rao Product"*: the communication lower bounds of Section IV, the
sequential and parallel communication-optimal algorithms of Section V (on a
two-level memory simulator and a simulated distributed-memory machine), the
analytic cost models and baseline comparisons of Section VI, and a CP-ALS
driver as the motivating workload.

Quick start::

    import numpy as np
    from repro import mttkrp, random_tensor, random_factors
    from repro.parallel import stationary_mttkrp
    from repro.bounds import memory_independent_lower_bound_flops

    tensor = random_tensor((32, 32, 32), seed=0)
    factors = random_factors((32, 32, 32), rank=8, seed=1)
    reference = mttkrp(tensor, factors, mode=0)

    run = stationary_mttkrp(tensor, factors, mode=0, grid_dims=(2, 2, 2))
    assert np.allclose(run.assemble(), reference)
    print(run.max_words_communicated)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure and comparison.
"""

from repro.core import (
    DimensionTree,
    DimensionTreeKernel,
    mttkrp,
    mttkrp_reference,
    mttkrp_via_matmul,
)
from repro.tensor import (
    DenseTensor,
    KruskalTensor,
    khatri_rao,
    khatri_rao_excluding,
    unfold,
    fold,
    random_tensor,
    random_factors,
    random_kruskal_tensor,
    random_low_rank_tensor,
    noisy_low_rank_tensor,
)
from repro.cp import cp_als, parallel_cp_als
from repro.sketch import (
    draw_krp_samples,
    parallel_sampled_mttkrp,
    reconcile_sampled_mttkrp,
    sampled_mttkrp,
)

__version__ = "1.1.0"

__all__ = [
    "mttkrp",
    "mttkrp_reference",
    "mttkrp_via_matmul",
    "DimensionTree",
    "DimensionTreeKernel",
    "DenseTensor",
    "KruskalTensor",
    "khatri_rao",
    "khatri_rao_excluding",
    "unfold",
    "fold",
    "random_tensor",
    "random_factors",
    "random_kruskal_tensor",
    "random_low_rank_tensor",
    "noisy_low_rank_tensor",
    "cp_als",
    "parallel_cp_als",
    "sampled_mttkrp",
    "draw_krp_samples",
    "parallel_sampled_mttkrp",
    "reconcile_sampled_mttkrp",
    "__version__",
]
