"""Core MTTKRP kernels (Definition 2.1 of the paper).

Three single-node kernels are provided:

* :func:`mttkrp_reference` — a literal transcription of Definition 2.1
  (atomic N-ary multiplies, triple loop), used as the oracle in tests;
* :func:`mttkrp` — the fast vectorised kernel (einsum-based):
  ``kernel="einsum"``, the reference kernel and the ``on_fault`` fallback;
* :func:`mttkrp_via_matmul` — the "MTTKRP via matrix multiplication"
  baseline of Section III-B: explicit mode-n unfolding, explicit Khatri-Rao
  product, then a single GEMM.

:func:`dense_mttkrp` is the one dense dispatch rule, run as
:func:`local_mttkrp`, the local computation inside the blocked and parallel
algorithms.  Where einsum's planned path would copy the tensor (its first
step contracts the tensor with the factor of a middle mode) it runs one
GEMM of the free unfolding against the other modes' Khatri-Rao product
(:func:`repro.core.kernels.gemm_mttkrp`); everywhere else it returns
:func:`mttkrp`'s bytes.
:mod:`repro.core.blocked_mttkrp` adds the cache-blocked
tiled-GEMM kernel (:func:`blocked_mttkrp`) — the executable form of the
sequential blocking argument at wall-clock scale.

For CP-ALS workloads, :mod:`repro.core.dimtree` provides the sweep-aware
dimension-tree engine (:class:`DimensionTreeKernel`, kernel ``"dimtree"``)
that caches partial contractions across mode updates, and its multi-sweep
schedule (:class:`MultiSweepTreeKernel`, kernel ``"msdt"`` or ``"auto"``,
the ``cp_als`` default), which on a 3-way tensor lets one tensor read serve
two consecutive updates, across sweep boundaries too.
:mod:`repro.core.sweep_kernel` holds the kernel protocol the ALS drivers
speak.

The communication-counting variants (sequential Algorithms 1 & 2, parallel
Algorithms 3 & 4) live in :mod:`repro.sequential` and :mod:`repro.parallel`.
"""

from repro.core.reference import mttkrp_reference
from repro.core.kernels import mttkrp, local_mttkrp, dense_mttkrp
from repro.core.blocked_mttkrp import blocked_mttkrp
from repro.core.matmul_baseline import mttkrp_via_matmul
from repro.core.dimtree import (
    DimensionTree,
    DimensionTreeKernel,
    FactorGate,
    MultiSweepTreeKernel,
    SweepCost,
    dimtree_sweep_cost,
    multisweep_sweep_costs,
)
from repro.core.sampled_dimtree import (
    FusedSamplerCache,
    FusedSweepCost,
    SampledDimtreeKernel,
)
from repro.core.sweep_kernel import (
    PerCallKernel,
    SweepKernel,
    as_sweep_kernel,
    check_kernel_name,
)

__all__ = [
    "mttkrp_reference",
    "mttkrp",
    "local_mttkrp",
    "blocked_mttkrp",
    "dense_mttkrp",
    "mttkrp_via_matmul",
    "DimensionTree",
    "DimensionTreeKernel",
    "FactorGate",
    "MultiSweepTreeKernel",
    "SweepCost",
    "dimtree_sweep_cost",
    "multisweep_sweep_costs",
    "FusedSamplerCache",
    "FusedSweepCost",
    "SampledDimtreeKernel",
    "SweepKernel",
    "PerCallKernel",
    "as_sweep_kernel",
    "check_kernel_name",
]
