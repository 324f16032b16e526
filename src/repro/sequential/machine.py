"""The two-level (fast/slow) sequential memory model.

The model machine of Section II-C(a): a single processor attached to a fast
memory of capacity ``M`` words and an unbounded slow memory.  Arithmetic only
happens on values resident in fast memory; *communication* is the number of
words moved between the two memories (loads + stores).

Two levels of fidelity are provided:

* :class:`IOCounter` — a plain counter of loads and stores.  The vectorised
  implementations of Algorithms 1 and 2 charge their (deterministic)
  per-iteration / per-block word movements to an ``IOCounter``.
* :class:`TwoLevelMemory` — an ``IOCounter`` that additionally tracks the set
  of resident words (by symbolic key) and raises
  :class:`~repro.exceptions.MemoryModelError` on capacity overflow.  The
  element-wise simulators in :mod:`repro.sequential.elementwise` run on this
  class and are used by the tests to validate the per-block charging of the
  fast implementations on small problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.exceptions import MemoryModelError, ParameterError


@dataclass
class IOCounter:
    """Counts words moved between slow and fast memory.

    Attributes
    ----------
    loads:
        Words read from slow memory into fast memory.
    stores:
        Words written from fast memory back to slow memory.
    """

    loads: int = 0
    stores: int = 0

    def load(self, words: int = 1) -> None:
        """Charge ``words`` loads."""
        if words < 0:
            raise ParameterError("cannot charge a negative number of loads")
        self.loads += int(words)

    def store(self, words: int = 1) -> None:
        """Charge ``words`` stores."""
        if words < 0:
            raise ParameterError("cannot charge a negative number of stores")
        self.stores += int(words)

    @property
    def words_moved(self) -> int:
        """Total communication: loads + stores."""
        return self.loads + self.stores

    def reset(self) -> None:
        """Zero both counters."""
        self.loads = 0
        self.stores = 0

    def merge(self, other: "IOCounter") -> None:
        """Accumulate another counter into this one."""
        self.loads += other.loads
        self.stores += other.stores

    def snapshot(self) -> Dict[str, int]:
        """Dictionary view (useful for reports and benchmarks)."""
        return {"loads": self.loads, "stores": self.stores, "words_moved": self.words_moved}


class TwoLevelMemory(IOCounter):
    """Capacity-checked fast memory on top of :class:`IOCounter`.

    Values are identified by hashable keys (e.g. ``("X", i1, i2, i3)`` or
    ``("block", "A0", j0, r)``); each key occupies ``size`` words (default 1).
    ``load`` brings a key into residence, ``store`` writes it back (it stays
    resident until evicted), ``evict`` frees space without communication
    (discarding) — evicting a *dirty* value without storing it first is an
    error, because that would silently lose a result.

    Parameters
    ----------
    capacity:
        Fast memory size ``M`` in words, or ``None`` for an unbounded fast
        memory (pure counting).
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        super().__init__()
        if capacity is not None and capacity < 1:
            raise ParameterError(f"fast memory capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._resident: Dict[Hashable, int] = {}
        self._dirty: Dict[Hashable, bool] = {}
        self._used = 0

    # -- residency bookkeeping --------------------------------------------
    @property
    def used(self) -> int:
        """Words currently resident in fast memory."""
        return self._used

    def _check_capacity(self, extra: int) -> None:
        if self.capacity is not None and self._used + extra > self.capacity:
            raise MemoryModelError(
                f"fast memory overflow: {self._used} + {extra} > capacity {self.capacity}"
            )

    # -- instructions -------------------------------------------------------
    def load_value(self, key: Hashable, size: int = 1) -> None:
        """Load ``key`` (of ``size`` words) from slow memory; charges ``size`` loads.

        Loading an already-resident key is treated as a (redundant) real load:
        it still charges communication, matching the literal pseudocode of
        Algorithm 1 which reloads values without checking residency.
        """
        if size < 1:
            raise ParameterError("size must be >= 1")
        if key not in self._resident:
            self._check_capacity(size)
            self._resident[key] = size
            self._dirty[key] = False
            self._used += size
        self.load(size)

    def touch(self, key: Hashable) -> None:
        """Mark a resident value as modified (dirty) without communication."""
        if key not in self._resident:
            raise MemoryModelError(f"cannot modify non-resident value {key!r}")
        self._dirty[key] = True

    def store_value(self, key: Hashable) -> None:
        """Store a resident value back to slow memory; charges its size in stores."""
        if key not in self._resident:
            raise MemoryModelError(f"cannot store non-resident value {key!r}")
        size = self._resident[key]
        self._dirty[key] = False
        self.store(size)

    def evict(self, key: Hashable) -> None:
        """Discard a resident value without communication.

        Raises :class:`MemoryModelError` if the value is dirty (it must be
        stored first, otherwise the algorithm would lose data).
        """
        if key not in self._resident:
            raise MemoryModelError(f"cannot evict non-resident value {key!r}")
        if self._dirty.get(key, False):
            raise MemoryModelError(f"cannot evict dirty value {key!r} without storing it")
        self._used -= self._resident.pop(key)
        self._dirty.pop(key, None)
