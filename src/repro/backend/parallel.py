"""Thread-parallel task executor shared by the blocked and distributed kernels.

Three kernels decompose their work into *independent* tasks and run them
through :func:`parallel_map`: the blocked dense MTTKRP of
:mod:`repro.core.blocked_mttkrp` (one task per output-row tile), and
Algorithms 3 and 4 of :mod:`repro.parallel` (one task per simulated rank's
local MTTKRP).  The executor's contract is deliberately stronger
than "runs things concurrently":

* **Results are returned in task-index order**, whatever order the tasks
  finished in.
* **The arithmetic performed is identical for every thread count** (including
  the inline ``threads=1`` path): a task computes the same values no matter
  which worker runs it, and any cross-task accumulation happens on the
  calling thread, in task order, so the threaded kernels are bitwise equal
  to their serial counterparts for any thread count.

Thread counts resolve through :func:`resolve_threads`: an explicit argument
wins, otherwise the ``REPRO_THREADS`` environment variable, otherwise 1
(serial).  :func:`effective_cpu_count` reports the cores the process may
actually use (CPU affinity aware).

Worker tasks may bump the observability layer's counters: the trace session
is process-wide and its metrics registry takes a lock, so a counter reads
the same total at every thread count.  Spans are another matter: the span
stack is context-local to the calling thread, so a task opens no span and
charges no flops or words; the coordinating thread charges those ledgers.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.exceptions import ParameterError
from repro.utils.validation import check_positive_int

__all__ = [
    "THREADS_ENV_VAR",
    "MAX_THREADS",
    "effective_cpu_count",
    "resolve_threads",
    "parallel_map",
]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit thread count is given —
#: the knob the CI threaded leg sets (``REPRO_THREADS=4``).
THREADS_ENV_VAR = "REPRO_THREADS"

#: Upper bound on accepted thread counts: far above any sensible request,
#: low enough that a typo (``REPRO_THREADS=400``) fails loudly instead of
#: spawning hundreds of workers.
MAX_THREADS = 128


def effective_cpu_count() -> int:
    """CPU cores this process may run on (affinity-aware, at least 1)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


def resolve_threads(threads: Optional[int] = None) -> int:
    """Resolve a thread-count request to a validated positive integer.

    An explicit ``threads`` must be an integer (a bool, a string or a
    fractional float raises :class:`ParameterError`; an integral float such
    as ``2.0`` is accepted).  ``None`` falls back to the
    :data:`THREADS_ENV_VAR` environment variable (itself defaulting to 1
    when unset or empty).  The result is *not* clamped to the machine's
    core count: requesting more threads than cores is legal (the kernels
    stay bitwise identical), merely unprofitable.
    """
    if threads is None:
        raw = os.environ.get(THREADS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            threads = int(raw)
        except ValueError:
            raise ParameterError(
                f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}"
            ) from None
    else:
        threads = check_positive_int(threads, "threads")
    if threads < 1 or threads > MAX_THREADS:
        raise ParameterError(
            f"threads must be in [1, {MAX_THREADS}], got {threads}"
        )
    return threads


#: Shared executors, one per resolved thread count whatever a call's task
#: count (a pool starts a worker only when no idle one can take a task).
#: Pool threads are started once and reused across kernel calls (an MTTKRP
#: inside an ALS sweep runs thousands of times; per-call pool construction
#: would dominate small problems).
_EXECUTORS: Dict[int, ThreadPoolExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()


def _executor(threads: int) -> ThreadPoolExecutor:
    with _EXECUTORS_LOCK:
        pool = _EXECUTORS.get(threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix=f"repro-chunk-{threads}"
            )
            _EXECUTORS[threads] = pool
        return pool


def parallel_map(
    fn: Callable[[T], R], items: Sequence[T], *, threads: Optional[int] = None
) -> List[R]:
    """Apply ``fn`` to every item, possibly on worker threads; ordered results.

    ``threads`` resolves through :func:`resolve_threads`; a resolved count of
    1 (or fewer items than 2) runs inline on the calling thread — the same
    code path, no executor involved.  Tasks must be independent: they may not
    rely on execution order, and any shared accumulation must happen on the
    caller's side, in task order.  The first task exception is re-raised
    after all submitted tasks have settled.
    """
    threads = resolve_threads(threads)
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    futures = [_executor(threads).submit(fn, item) for item in items]
    results: List[R] = []
    first_error: Optional[BaseException] = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if first_error is None:
                first_error = exc
    if first_error is not None:
        raise first_error
    return results
