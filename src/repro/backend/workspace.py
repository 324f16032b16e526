"""Workspace pool: reusable tile/chunk temporaries.

The blocked dense kernel and the chunked sparse kernel allocate the same
small set of scratch shapes over and over — a gathered-factor block, a
contribution block, a matricized tile, a Khatri-Rao row block — once per
chunk, thousands of chunks per ALS sweep, dozens of sweeps per run.  A
:class:`WorkspacePool` turns those allocations into checkouts from a
per-``(shape, dtype)`` arena: the first borrow of a shape allocates
(``workspace.miss``), every later borrow reuses a released buffer
(``workspace.hit``), and buffers whose shape has gone cold are dropped when
the pooled free words exceed the capacity (``workspace.evict``) — oldest
released first, so steady-state hot shapes survive exactly like the einsum
path cache's LRU.  The pool is thread-safe: chunk tasks running on the
shared executor of :mod:`repro.backend.parallel` borrow and release
concurrently under one lock (the lock guards free-list bookkeeping only,
never the arithmetic on borrowed buffers, which each task owns exclusively).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.observe.instrument import inc as observe_inc, observe_value

__all__ = [
    "DEFAULT_WORKSPACE_CAPACITY_WORDS",
    "WorkspacePool",
    "default_pool",
    "reset_default_pool",
]

#: Free-list capacity of the default pool, in words: 2^22 words = 32 MiB of
#: float64 — a few times the kernels' fast-memory chunk budget, so every
#: scratch shape of a steady-state ALS run stays pooled while a burst of
#: one-off shapes (ragged edge tiles of a cold problem) gets shed.
DEFAULT_WORKSPACE_CAPACITY_WORDS = 1 << 22


def _words(shape: Tuple[int, ...]) -> int:
    total = 1
    for dim in shape:
        total *= int(dim)
    return total


class WorkspacePool:
    """Per-``(shape, dtype)`` arena of reusable scratch buffers."""

    def __init__(self, capacity_words: int = DEFAULT_WORKSPACE_CAPACITY_WORDS) -> None:
        if int(capacity_words) < 1:
            raise ParameterError("capacity_words must be positive")
        self.capacity_words = int(capacity_words)
        #: key -> free buffers of that key; the OrderedDict order over keys is
        #: release recency (oldest first), the eviction order.
        self._free: "OrderedDict[Tuple[Tuple[int, ...], str], List]" = OrderedDict()
        #: id(buffer) -> key for buffers currently checked out.
        self._borrowed: Dict[int, Tuple[Tuple[int, ...], str]] = {}
        self._lock = threading.Lock()
        self._free_words = 0
        self._borrowed_words = 0
        self.high_water_words = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- introspection -------------------------------------------------------
    @property
    def pooled_words(self) -> int:
        """Words currently held in free lists (bounded by ``capacity_words``)."""
        return self._free_words

    @property
    def outstanding_words(self) -> int:
        """Words currently checked out to callers."""
        return self._borrowed_words

    # -- borrow / release ----------------------------------------------------
    def borrow(self, shape: Sequence[int], dtype=np.float64, *, zero: bool = False):
        """Check out a buffer of ``shape``/``dtype``.

        Reused buffers carry stale contents unless ``zero=True``; callers
        that overwrite every element (``np.matmul(..., out=...)``,
        ``np.copyto``) should leave ``zero`` off.
        """
        shape = tuple(int(dim) for dim in shape)
        dtype_name = str(np.dtype(dtype))
        key = (shape, dtype_name)
        words = _words(shape)
        with self._lock:
            free_list = self._free.get(key)
            if free_list:
                buffer = free_list.pop()
                if not free_list:
                    del self._free[key]
                self._free_words -= words
                self.hits += 1
                hit = True
            else:
                buffer = None
                self.misses += 1
                hit = False
            self._borrowed_words += words
            total = self._free_words + self._borrowed_words
            new_high_water = total > self.high_water_words
            if new_high_water:
                self.high_water_words = total
        observe_inc("workspace.hit" if hit else "workspace.miss")
        if new_high_water:
            observe_value("workspace.high_water_words", float(self.high_water_words))
        if buffer is None:
            buffer = np.zeros(shape, dtype=np.dtype(dtype_name))
        elif zero:
            buffer[...] = 0
        with self._lock:
            self._borrowed[id(buffer)] = key
        return buffer

    def release(self, buffer) -> None:
        """Return a borrowed buffer to its free list (evicting if over capacity)."""
        evicted = 0
        with self._lock:
            key = self._borrowed.pop(id(buffer), None)
            if key is None:
                raise ParameterError("release of a buffer this pool did not lend")
            words = _words(key[0])
            self._borrowed_words -= words
            self._free.setdefault(key, []).append(buffer)
            self._free.move_to_end(key)
            self._free_words += words
            # Shed the oldest-released shapes until the free arena fits.
            while self._free_words > self.capacity_words and self._free:
                old_key, old_list = next(iter(self._free.items()))
                old_list.pop(0)
                if not old_list:
                    del self._free[old_key]
                self._free_words -= _words(old_key[0])
                self.evictions += 1
                evicted += 1
        if evicted:
            observe_inc("workspace.evict", evicted)

    @contextmanager
    def lease(self, shape: Sequence[int], dtype=np.float64, *, zero: bool = False):
        """Context-managed :meth:`borrow` — released on exit, even on error."""
        buffer = self.borrow(shape, dtype, zero=zero)
        try:
            yield buffer
        finally:
            self.release(buffer)


#: Process-wide default pool, shared by every kernel call that does not pass
#: its own.  Chunk scratch shapes repeat across kernels, sweeps, and whole
#: ALS runs, so one arena serves them all; tests swap it out via
#: :func:`reset_default_pool`.
_DEFAULT_POOL = WorkspacePool()
_DEFAULT_POOL_LOCK = threading.Lock()


def default_pool() -> WorkspacePool:
    """The process-wide :class:`WorkspacePool` kernels fall back to."""
    return _DEFAULT_POOL


def reset_default_pool(
    capacity_words: int = DEFAULT_WORKSPACE_CAPACITY_WORDS,
) -> WorkspacePool:
    """Replace the default pool with a fresh one (test isolation hook)."""
    global _DEFAULT_POOL
    with _DEFAULT_POOL_LOCK:
        _DEFAULT_POOL = WorkspacePool(capacity_words)
        return _DEFAULT_POOL
