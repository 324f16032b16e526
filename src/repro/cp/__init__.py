"""CP decomposition drivers built on the MTTKRP kernels (Section II-A context).

MTTKRP is the bottleneck of CP optimisation algorithms; this subpackage
provides the workload that motivates the paper:

* :func:`cp_als` — the alternating-least-squares algorithm for dense tensors,
  with a pluggable MTTKRP kernel;
* :func:`parallel_cp_als` — CP-ALS whose MTTKRPs run on the simulated
  distributed machine (the distributed dimension tree unless a kernel is
  named; Algorithms 3 and 4 as ``kernel="exact"`` and ``kernel="general"``),
  so per-iteration communication can be measured and compared against the
  bounds.
"""

from repro.cp.initialization import initialize_factors
from repro.cp.als import cp_als, CPALSResult, KERNEL_NAMES
from repro.cp.parallel_als import (
    parallel_cp_als,
    ParallelCPALSResult,
    PARALLEL_KERNEL_NAMES,
)

__all__ = [
    "initialize_factors",
    "cp_als",
    "CPALSResult",
    "KERNEL_NAMES",
    "parallel_cp_als",
    "ParallelCPALSResult",
    "PARALLEL_KERNEL_NAMES",
]
