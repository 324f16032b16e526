"""Checkpoint/restore of full CP-ALS state for bitwise-identical resume.

The drivers (:func:`repro.cp.als.cp_als` / ``parallel_cp_als``) snapshot one
:class:`CheckpointState` per completed sweep into a :class:`CheckpointStore`.
A run killed after sweep ``k`` and resumed from ``store.latest()`` replays
sweeps ``k+1..`` **bitwise identical** to the uninterrupted run — factors,
weights, fits, and (for the sampled kernels) every RNG draw — because the
checkpoint holds everything the sweep loop and the kernel read:

* driver state — factor matrices, column weights, the fit history, the
  previous fit the convergence test compares against, and the MTTKRP call
  count (the per-sweep Gram prefix/suffix caches are *recomputed* on resume:
  ``f.T @ f`` of bitwise-equal factors is bitwise equal);
* kernel state — whatever the kernel's
  :meth:`~repro.core.sweep_kernel.SweepKernel.capture_state` returned:
  dimension-tree partials with their :class:`~repro.core.dimtree.FactorGate`
  version stamps and stored factors, the fused kernels' sampler cache,
  gathered factor blocks of the distributed kernels, and the exact
  ``numpy.random.Generator`` bit-stream position of the sampled kernels,
  under a ``"kind"`` key naming the kernel's class (with a distributed
  kernel's grid and a sampled kernel's distribution): another kernel
  refuses the state on resume.

A kernel captures its state by reference.  :meth:`CheckpointState.copy`,
one ``copy.deepcopy`` of the whole checkpoint, is the only copy a save
(:meth:`CheckpointStore.save`) or a resume takes, so an array held by both
the driver and the kernel — a factor the kernel's gate compares by
identity — is copied once and stays one object: after a resume the gate
hits where the uninterrupted run's did and invalidates where it did, and a
distributed run's word ledger splits additively at the kill point.  The copy
never reaches the tensor, whose blocks the kernels derive again on resume.

Checkpoint format: :attr:`CheckpointState.kernel_state` is a tree of
dicts, tuples and arrays, with the fused kernels' sampler cache object in
it (kernel-specific keys documented on each kernel's ``capture_state``);
it pickles, if a caller needs durability beyond the in-memory store.

This module is a dependency leaf (numpy, exceptions and validation only) so
both drivers can import it without layering concerns.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.utils.validation import check_positive_int


@dataclass
class CheckpointState:
    """Everything needed to resume CP-ALS after sweep ``iteration``.

    Attributes
    ----------
    iteration:
        The completed (1-based) ALS sweep this state was captured after.
    factors, weights:
        The factor matrices and column weights at the sweep boundary.
    fits:
        Fit history through this sweep.
    previous_fit:
        The value the next sweep's convergence test compares against.
    mttkrp_calls:
        MTTKRP invocations performed so far.
    kernel_state:
        Opaque kernel snapshot
        (:meth:`~repro.core.sweep_kernel.SweepKernel.capture_state`); ``None``
        for stateless kernels.
    shape, rank:
        Problem coordinates, validated on resume.
    """

    iteration: int
    factors: List[np.ndarray]
    weights: np.ndarray
    fits: List[float]
    previous_fit: float
    mttkrp_calls: int
    kernel_state: Optional[dict]
    shape: Tuple[int, ...]
    rank: int

    def copy(self) -> "CheckpointState":
        """One deep copy of the whole checkpoint, driver and kernel state together.

        It is the only copy a save or a resume takes: the kernel's snapshot
        holds live objects, and an array it shares with the driver (a factor
        its staleness gate compares by identity) stays one array in the
        copy, so identity checks keep hitting after a resume.
        """
        return copy.deepcopy(self)

    def check_problem(self, shape: Sequence[int], rank: int) -> None:
        """Raise unless this checkpoint belongs to the given problem."""
        if tuple(shape) != tuple(self.shape) or int(rank) != int(self.rank):
            raise ParameterError(
                f"checkpoint is for shape {tuple(self.shape)} rank {self.rank}, "
                f"cannot resume a shape {tuple(shape)} rank {rank} run"
            )


@dataclass
class CheckpointStore:
    """In-memory checkpoint store the drivers save into.

    Parameters
    ----------
    every:
        Save cadence — a checkpoint is kept after every ``every``-th
        completed sweep (default 1: every sweep).
    keep_last:
        When set, only the most recent ``keep_last`` checkpoints are
        retained (a ring buffer bounding memory on long runs).
    """

    every: int = 1
    keep_last: Optional[int] = None
    states: List[CheckpointState] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.every = check_positive_int(self.every, "checkpoint cadence 'every'")
        if self.keep_last is not None:
            self.keep_last = check_positive_int(self.keep_last, "keep_last")

    def wants(self, iteration: int) -> bool:
        """Whether the driver should checkpoint after this sweep."""
        return int(iteration) % self.every == 0

    def save(self, state: CheckpointState) -> None:
        """Store a deep copy of ``state``."""
        self.states.append(state.copy())
        if self.keep_last is not None and len(self.states) > self.keep_last:
            del self.states[: len(self.states) - self.keep_last]

    def latest(self) -> Optional[CheckpointState]:
        """The most recent checkpoint, or ``None``."""
        return self.states[-1] if self.states else None

    def at_sweep(self, iteration: int) -> CheckpointState:
        """The checkpoint captured after sweep ``iteration`` (exact match)."""
        for state in self.states:
            if state.iteration == int(iteration):
                return state
        raise ParameterError(f"no checkpoint stored for sweep {iteration}")

    def __len__(self) -> int:
        return len(self.states)
