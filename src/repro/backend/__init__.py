"""Execution services shared by the MTTKRP kernels.

Two services live here: the thread-parallel chunk executor of
:mod:`repro.backend.parallel` (deterministic fixed-order reduction, thread
count from ``REPRO_THREADS``) and the workspace pool of
:mod:`repro.backend.workspace` (reusable chunk/tile temporaries shared
across chunks and ALS sweeps).  The kernels themselves call NumPy directly.
"""

from repro.backend.parallel import (
    MAX_THREADS,
    THREADS_ENV_VAR,
    effective_cpu_count,
    ordered_reduce,
    parallel_map,
    resolve_threads,
)
from repro.backend.workspace import (
    DEFAULT_WORKSPACE_CAPACITY_WORDS,
    WorkspacePool,
    default_pool,
    reset_default_pool,
)

__all__ = [
    "THREADS_ENV_VAR",
    "MAX_THREADS",
    "effective_cpu_count",
    "resolve_threads",
    "parallel_map",
    "ordered_reduce",
    "DEFAULT_WORKSPACE_CAPACITY_WORDS",
    "WorkspacePool",
    "default_pool",
    "reset_default_pool",
]
