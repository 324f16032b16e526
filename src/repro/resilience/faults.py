"""Deterministic fault model for the simulated distributed stack.

A fault is a :class:`FaultSpec` — *where* (collective kind, trace-label
substring, global collective step) and *what* (a dropped payload, a corrupted
payload, a latency spike, or a rank failure).  A :class:`FaultSchedule` is an
immutable bag of specs matched against every collective attempt by
:class:`~repro.resilience.machine.FaultyMachine`; because matching is pure
and the schedule is either hand-written or generated from a seed
(:meth:`FaultSchedule.seeded`), two runs under the same schedule inject the
*same* faults at the *same* points — which is what lets the recovery tests
assert bitwise results and exact ledger accounting rather than "it probably
recovered".

Fault kinds and their collective-layer semantics
(:func:`repro.parallel.collectives._charge_group`):

``"drop"`` / ``"corrupt"``
    The attempt's traffic is wasted (charged to the retry ledgers *and* the
    main ledgers — the bytes really crossed the network) and the collective
    is re-driven after an exponential backoff of ``2**attempt`` units.  The
    delivered payload is the re-driven, intact one, so results are bitwise
    fault-free; only the ledger grows, by exactly the charged retries.
``"delay"``
    A latency spike: ``delay_units`` land on the machine's delay ledger, no
    extra words move, the payload arrives intact.
``"rank-failure"``
    The rank dies mid-collective:
    :class:`~repro.exceptions.RankFailureError` propagates to the caller,
    whose recovery path is checkpoint/restore
    (:mod:`repro.resilience.checkpoint`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.parallel.collectives import COLLECTIVE_KINDS
from repro.utils.validation import check_positive_int

#: Injectable fault kinds.
FAULT_KINDS = ("drop", "corrupt", "delay", "rank-failure")

@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault: a target point and a failure kind.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    step:
        Global collective step to hit (``None`` matches every step).  Steps
        number the collectives of a run in execution order, shared across
        retries of the same collective.
    collective:
        Collective kind to hit, one of
        :data:`~repro.parallel.collectives.COLLECTIVE_KINDS`
        (``"all_gather"``, ``"reduce_scatter"``; ``None`` matches any).
    label:
        Substring of the trace label to hit (``None`` matches any).
    rank:
        Rank that must participate for the fault to fire (``None`` matches
        any group).
    n_failures:
        How many consecutive attempts fail before the collective goes
        through (``drop``/``corrupt`` only; attempts ``0 .. n_failures-1``
        fail).  Setting this at or above the machine's ``max_attempts``
        exhausts the retry budget deterministically.
    delay_units:
        Latency-spike size for ``kind="delay"``.
    """

    kind: str
    step: Optional[int] = None
    collective: Optional[str] = None
    label: Optional[str] = None
    rank: Optional[int] = None
    n_failures: int = 1
    delay_units: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ParameterError(
                f"unknown fault kind {self.kind!r}; use one of {FAULT_KINDS}"
            )
        if self.collective is not None and self.collective not in COLLECTIVE_KINDS:
            raise ParameterError(
                f"unknown collective {self.collective!r}; use one of {COLLECTIVE_KINDS}"
            )
        if self.n_failures < 1:
            raise ParameterError("n_failures must be at least 1")
        if self.delay_units < 1:
            raise ParameterError("delay_units must be at least 1")

    def matches(
        self, kind: str, label: str, group: Sequence[int], step: int, attempt: int
    ) -> bool:
        """Whether this spec fires on the given collective attempt."""
        if self.step is not None and self.step != step:
            return False
        if self.collective is not None and self.collective != kind:
            return False
        if self.label is not None and self.label not in label:
            return False
        if self.rank is not None and self.rank not in group:
            return False
        if self.kind in ("drop", "corrupt"):
            return attempt < self.n_failures
        # Delays and rank failures fire on the first attempt only: a delayed
        # payload still arrives and a dead rank aborts the run, so neither
        # participates in the retry loop.
        return attempt == 0


@dataclass(frozen=True)
class InjectedFault:
    """Record of one fault that actually fired (kept by the faulty machine)."""

    step: int
    collective: str
    label: str
    fault_kind: str
    attempt: int


class FaultSchedule:
    """Immutable, deterministic set of faults to inject into one run.

    Matching is stateless (pure function of the attempt's coordinates), so a
    schedule can be replayed — the determinism the checkpoint and ledger
    tests lean on.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ParameterError(f"not a FaultSpec: {spec!r}")

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def match(
        self, kind: str, label: str, group: Sequence[int], step: int, attempt: int
    ) -> Optional[FaultSpec]:
        """First spec firing on this attempt, or ``None`` (specs are ordered)."""
        for spec in self.specs:
            if spec.matches(kind, label, group, step, attempt):
                return spec
        return None

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        n_faults: int = 3,
        max_step: int = 60,
        kinds: Sequence[str] = ("drop", "corrupt", "delay"),
        max_failures: int = 2,
    ) -> "FaultSchedule":
        """Generate a deterministic schedule from a seed.

        Draws ``n_faults`` specs with independent step targets in
        ``[0, max_step)`` and kinds from ``kinds`` (default: the recoverable
        three — rank failures abort the run and are opted into explicitly).
        The same seed always yields the same schedule.  ``n_faults`` must be
        a non-negative integer, ``max_step`` and ``max_failures`` positive
        integers, and ``kinds`` non-empty.
        """
        n_faults = check_positive_int(n_faults, "n_faults", minimum=0)
        max_step = check_positive_int(max_step, "max_step")
        max_failures = check_positive_int(max_failures, "max_failures")
        if not kinds:
            raise ParameterError("kinds must name at least one fault kind")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ParameterError(
                    f"unknown fault kind {kind!r}; use one of {FAULT_KINDS}"
                )
        rng = np.random.default_rng(seed)
        specs: List[FaultSpec] = []
        for _ in range(n_faults):
            kind = str(kinds[int(rng.integers(0, len(kinds)))])
            step = int(rng.integers(0, max_step))
            if kind in ("drop", "corrupt"):
                specs.append(
                    FaultSpec(
                        kind,
                        step=step,
                        n_failures=int(rng.integers(1, max_failures + 1)),
                    )
                )
            elif kind == "delay":
                specs.append(
                    FaultSpec(kind, step=step, delay_units=int(rng.integers(1, 8)))
                )
            else:
                specs.append(FaultSpec(kind, step=step))
        return cls(specs)


def poison_kernel_cache(kernel, value: float = np.nan) -> bool:
    """Overwrite every cached dimtree partial with ``value`` (test/fault helper).

    Simulates silent cache corruption — the failure mode the drivers'
    ``on_fault`` policies detect (non-finite MTTKRP output) and recover from
    with the kernel's
    :meth:`~repro.core.sweep_kernel.SweepKernel.invalidate_caches`, which
    drops every node.  Identity cannot see the poison: a poisoned node still
    holds the factor arrays it was built from, so it is served until that
    call.  Works on any kernel exposing a
    bound :class:`~repro.core.dimtree.DimensionTree` (``kernel.tree``, the
    sequential tree kernels) or per-rank trees (``kernel._trees``, the
    distributed ones); returns whether any partial was poisoned.  Poison
    after a sweep's first MTTKRP so at least one partial is *served* (not
    recomputed) by the remaining mode updates.  The multi-sweep kernel
    (``"msdt"``) holds a node only after an odd update: poison it after the
    first MTTKRP of an even sweep, where the cached node is served next (in
    sweep 1 and every later odd sweep its cache is empty at that point).
    """
    trees = []
    tree = getattr(kernel, "tree", None)
    if tree is not None:
        trees.append(tree)
    trees.extend(getattr(kernel, "_trees", {}).values())
    poisoned = False
    for tree in trees:
        cache = getattr(tree, "_cache", None)
        if not cache:
            continue
        for entry in cache.values():
            entry[0][...] = value
            poisoned = True
    return poisoned
