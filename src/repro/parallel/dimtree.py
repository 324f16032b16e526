"""Distributed dimension-tree CP-ALS kernel on the simulated machine.

The exact parallel kernel (Algorithm 3,
:class:`~repro.parallel.stationary.StationaryKernel`) All-Gathers every input
factor for every mode update: ``N (N - 1)`` factor All-Gathers per ALS sweep.
Across a sweep those gathers are almost entirely redundant — a factor matrix
only changes when its own mode is solved.  This module's
:class:`DistributedDimtreeKernel` is the sweep-aware distributed kernel that
exploits both redundancies at once:

* **communication** — gathered factor block rows are cached per sweep and
  re-gathered only when the driver has replaced that factor (detected by
  array identity, exactly like the sequential engine), so the steady state
  issues *one* All-Gather per mode update instead of ``N - 1``;
* **computation** — each rank runs its own
  :class:`~repro.core.dimtree.DimensionTree` over its stationary sub-tensor,
  so local partial contractions are reused across the sweep's mode updates
  and the counted local flops drop by the same ``~N/2`` factor as in the
  sequential engine.  Each tree drops, before it serves mode ``m``, the
  cached nodes that the update of factor ``m`` stales, so the storage
  charge counts only nodes that this update leaves valid.

The output Reduce-Scatter per mode is Algorithm 3's
(:func:`~repro.parallel.stationary.reduce_scatter_output`: the output rows
must still be summed and redistributed), and the setup — grid and machine
checks, the one-buffer scatter once per run, the storage charge — is the one
:class:`~repro.parallel.distribution.DistributedKernel` gives every
distributed kernel; this kernel adds its per-rank trees and gate to it.

The fused sampled kernel of :mod:`repro.sketch.parallel.sampled_dimtree` is a
subclass: it keeps the setup, gather cache, checkpoint state and
Reduce-Scatter defined here and replaces only the per-rank local step.

:func:`replay_dimtree_ledger` replays every collective the kernel issues
— same groups, same block sizes, same bucket costs, same staleness schedule
— so the machine's word ledger matches :func:`predicted_dimtree_ledger`
exactly (the tests assert ``==``); the fused kernel's replay is the same loop
plus its Gram All-Reduces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dimtree import DimensionTree, FactorGate
from repro.parallel.collectives import (
    all_gather,
    bucket_all_gather_cost,
    bucket_reduce_scatter_cost,
)
from repro.parallel.distribution import (
    DistributedKernel,
    DistributedMTTKRPOutput,
    StationaryDistribution,
)
from repro.parallel.grid import ProcessorGrid
from repro.parallel.machine import SimulatedMachine
from repro.parallel.stationary import reduce_scatter_output
from repro.utils.partition import partition_bounds
from repro.utils.validation import check_positive_int, check_rank, check_shape

#: Trace-label prefixes (the reconciliation tests split the ledger on these).
GATHER_LABEL = "dimtree all_gather"
REDUCE_LABEL = "dimtree reduce_scatter"


class DistributedDimtreeKernel(DistributedKernel):
    """Sweep-aware distributed MTTKRP with cached gathers and per-rank trees.

    Registered in :data:`repro.cp.parallel_als.PARALLEL_KERNEL_NAMES` as
    ``"dimtree"``, the kernel :func:`~repro.cp.parallel_als.parallel_cp_als`
    runs when no kernel is named (stationary distribution only — the tensor
    stays put, as in Algorithm 3).

    Parameters
    ----------
    grid_dims:
        The ``N``-way processor grid ``(P_1, ..., P_N)``.
    machine:
        Optional pre-existing :class:`SimulatedMachine` accumulating the run's
        communication; a fresh one is created otherwise.

    A kernel-level :class:`~repro.core.dimtree.FactorGate` governs the
    gather cache by array identity: a factor is re-gathered exactly when the
    driver has replaced it, so the ledger matches
    :func:`predicted_dimtree_ledger` word for word.

    Subclasses name their collectives through :attr:`gather_label` and
    :attr:`reduce_label`, may add a collective after each factor gather
    (:meth:`_gather_factor`), and may replace the per-rank local step
    (:meth:`_local_outputs`).
    """

    gather_label = GATHER_LABEL
    reduce_label = REDUCE_LABEL

    def __init__(
        self,
        grid_dims: Sequence[int],
        *,
        machine: Optional[SimulatedMachine] = None,
    ) -> None:
        super().__init__(grid_dims, machine=machine)
        self.gate: Optional[FactorGate] = None
        self._trees: Dict[int, DimensionTree] = {}
        self._gathered: Dict[int, Dict[int, np.ndarray]] = {}
        self._gathered_version: Dict[int, int] = {}
        self._pending_state: Optional[dict] = None

    # -- checkpoint/restore ---------------------------------------------------
    def capture_state(self) -> Optional[dict]:
        """Gate stamps, gathered blocks, and per-rank tree caches, by reference.

        Each per-rank tree's gate holds the gathered blocks themselves, so
        the checkpoint's one deep copy keeps them one object each and the
        restored trees keep hitting.
        """
        if self.gate is None:
            return None
        return {
            "kind": self.state_kind,
            "gate": self.gate.capture_state(),
            "gathered": self._gathered,
            "gathered_version": self._gathered_version,
            "trees": {r: tree.capture_state() for r, tree in self._trees.items()},
        }

    def restore_state(self, state: Optional[dict]) -> None:
        """Check and stash a snapshot; applied inside the next :meth:`mttkrp` call."""
        if state is not None:
            self.check_state(state)
        self._pending_state = state

    def invalidate_caches(self) -> bool:
        if self.gate is None:
            return False
        self._gathered.clear()
        self._gathered_version.clear()
        for tree in self._trees.values():
            tree.invalidate_all()
        self.gate.invalidate_all()
        return True

    def _apply_pending(self) -> None:
        state = self._pending_state
        self._pending_state = None
        self.gate.restore_state(state["gate"])
        self._gathered = state["gathered"]
        self._gathered_version = state["gathered_version"]
        for r, tree in self._trees.items():
            tree.restore_state(state["trees"][r])

    def setup(self, data: np.ndarray, rank: int, mode: int = 0) -> bool:
        if not super().setup(data, rank, mode):
            return False
        # A new problem: rebuild the trees, gate, and gather cache.
        self._gathered.clear()
        self._gathered_version.clear()
        self._trees = {r: DimensionTree(block.data) for r, block in self.tensor_blocks.items()}
        self.gate = FactorGate(data.ndim)
        return True

    def _gather_factor(self, k: int, factor: np.ndarray) -> None:
        """All-Gather factor ``k``'s block rows within each mode-``k`` hyperslice."""
        gathered: Dict[int, np.ndarray] = {}
        for pk in range(self.grid.dims[k]):
            group = self.grid.slice_group({k: pk})
            local = {
                r: factor[self.dist.factor_local_rows(k, r), :] for r in group
            }
            result = all_gather(
                self.machine,
                group,
                local,
                axis=0,
                label=f"{self.gather_label} A^({k}) p_{k}={pk}",
            )
            gathered.update(result)
        self._gathered[k] = gathered

    def _local_factors(self, r: int, mode: int) -> List[Optional[np.ndarray]]:
        """Rank ``r``'s gathered input blocks (``None`` at ``mode``)."""
        return [
            None if k == mode else self._gathered[k][r]
            for k in range(len(self.grid.dims))
        ]

    def _local_outputs(
        self, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> Dict[int, np.ndarray]:
        """Every rank's local dimension-tree MTTKRP (counted flops)."""
        outputs: Dict[int, np.ndarray] = {}
        for r, tree in self._trees.items():
            local_factors = self._local_factors(r, mode)
            flops_before = tree.flops
            outputs[r] = tree.mttkrp(local_factors, mode)
            self._charge_local(
                r,
                tree.flops - flops_before,
                self.tensor_blocks[r].data,
                local_factors,
                outputs[r],
                tree.cached_words(),
            )
        return outputs

    def step(
        self, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> DistributedMTTKRPOutput:
        if self._pending_state is not None:
            self._apply_pending()

        # -- re-gather only the factors the gate declares stale: exactly the
        #    ones the driver has replaced.
        for k in range(len(self.grid.dims)):
            if k == mode:
                continue
            self.gate.register(k, factors[k])
            if self._gathered_version.get(k) != self.gate.versions[k]:
                self._gather_factor(k, np.asarray(factors[k]))
                self._gathered_version[k] = self.gate.versions[k]

        local_outputs = self._local_outputs(factors, mode)

        # -- output Reduce-Scatter within each mode hyperslice (Algorithm 3).
        return reduce_scatter_output(
            self.machine,
            self.dist,
            local_outputs,
            mode,
            lambda pn: f"{self.reduce_label} B mode {mode} p_{mode}={pn}",
        )


def output_reduce_scatter_words(dist: StationaryDistribution, mode: int) -> np.ndarray:
    """Per-rank words of Algorithm 3's output Reduce-Scatter for ``mode``.

    One bucket Reduce-Scatter per mode-``mode`` hyperslice, its pieces whole
    output rows of ``R`` words.
    """
    words = np.zeros(dist.grid.n_procs, dtype=np.int64)
    for pn in range(dist.grid.dims[mode]):
        group = dist.grid.slice_group({mode: pn})
        start, stop = dist.mode_partitions[mode][pn]
        piece_rows = max(b - a for a, b in partition_bounds(stop - start, len(group)))
        words[group] += bucket_reduce_scatter_cost(len(group), piece_rows * dist.rank)
    return words


def replay_dimtree_ledger(
    shape: Sequence[int],
    rank: int,
    grid_dims: Sequence[int],
    n_sweeps: int,
) -> Tuple[np.ndarray, int]:
    """Replay the dimtree kernel's collectives; return per-rank words and gathers.

    The one replay loop of both distributed tree kernels: the ALS schedule
    (modes ``0..N-1`` per sweep, each factor replaced after its solve), the
    gather-staleness bookkeeping, the per-hyperslice All-Gather block sizes,
    and the output Reduce-Scatters.  The second value counts factor gather
    events, on each of which the fused sampled kernel adds one Gram
    All-Reduce.
    """
    shape = check_shape(shape, min_ndim=2)
    rank = check_rank(rank)
    n_sweeps = check_positive_int(n_sweeps, "n_sweeps")
    grid = ProcessorGrid(grid_dims)
    dist = StationaryDistribution(shape, rank, 0, grid)
    words = np.zeros(grid.n_procs, dtype=np.int64)
    ndim = len(shape)
    versions = [0] * ndim
    gathered_at: Dict[int, int] = {}
    gathers = 0
    for _ in range(n_sweeps):
        for mode in range(ndim):
            for k in range(ndim):
                if k == mode or gathered_at.get(k) == versions[k]:
                    continue
                for pk in range(grid.dims[k]):
                    group = grid.slice_group({k: pk})
                    block = max(len(dist.factor_local_rows(k, r)) for r in group) * rank
                    words[group] += bucket_all_gather_cost(len(group), block)
                gathered_at[k] = versions[k]
                gathers += 1
            words += output_reduce_scatter_words(dist, mode)
            versions[mode] += 1
    return words, gathers


def predicted_dimtree_ledger(
    shape: Sequence[int],
    rank: int,
    grid_dims: Sequence[int],
    n_sweeps: int,
) -> np.ndarray:
    """Per-rank words sent (= received) the dimtree kernel charges over a run.

    Replays every collective of :class:`DistributedDimtreeKernel` under the
    ALS schedule symbolically (:func:`replay_dimtree_ledger`) from the bucket
    cost formulas alone, so the returned array equals the machine's
    ``words_sent`` (and ``words_received``) exactly — the "measured ==
    predicted" reconciliation target.
    """
    return replay_dimtree_ledger(shape, rank, grid_dims, n_sweeps)[0]


def predicted_dimtree_sweep_words(
    shape: Sequence[int], rank: int, grid_dims: Sequence[int]
) -> int:
    """Max-per-rank words of one *steady-state* dimtree ALS sweep.

    The steady state (one All-Gather per mode update plus the ``N`` output
    Reduce-Scatters) holds from the second sweep on; the first sweep
    additionally gathers the ``N - 1`` input factors of mode 0 cold.
    """
    two = predicted_dimtree_ledger(shape, rank, grid_dims, 2)
    one = predicted_dimtree_ledger(shape, rank, grid_dims, 1)
    return int((two - one).max())
