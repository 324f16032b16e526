"""Execution service shared by the MTTKRP kernels.

One service lives here: the thread-parallel task executor of
:mod:`repro.backend.parallel` (index-ordered results, thread count from
``REPRO_THREADS`` unless a call passes ``threads=``).  The kernels
themselves call NumPy directly and allocate their own scratch.
"""

from repro.backend.parallel import (
    MAX_THREADS,
    THREADS_ENV_VAR,
    effective_cpu_count,
    parallel_map,
    resolve_threads,
)

__all__ = [
    "THREADS_ENV_VAR",
    "MAX_THREADS",
    "effective_cpu_count",
    "resolve_threads",
    "parallel_map",
]
