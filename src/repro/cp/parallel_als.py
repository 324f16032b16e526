"""CP-ALS whose MTTKRPs run on the simulated distributed machine.

This driver measures the communication that the MTTKRP kernels contribute to
a full CP-ALS workload: every mode update performs its MTTKRP on a
:class:`~repro.parallel.SimulatedMachine` and the per-iteration word counts
are recorded.  Unless a kernel is named, a sweep runs the distributed
dimension tree (:class:`~repro.parallel.dimtree.DistributedDimtreeKernel`):
each rank reads its block twice per sweep instead of ``N`` times and
All-Gathers one factor per update instead of ``N - 1``, as Section VII of
the paper suggests for the CP-ALS context.  The paper's Algorithms 3 and 4
run by name (``kernel="exact"``,
:class:`~repro.parallel.stationary.StationaryKernel`, and
``kernel="general"``, :class:`~repro.parallel.general.GeneralKernel`).
Every exact kernel scatters the tensor once per run, as the paper's
stationary tensor implies.  The sampled kernels draw from the distribution
their sequential registry names draw from, and faults are injected by
passing a :class:`~repro.resilience.machine.FaultyMachine` as ``machine``.
The small dense linear algebra of the normal equations (R x R solves and
Gram updates) is treated as replicated — its communication is lower order,
exactly as in the paper's discussion of the CP-ALS context (Section VII).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.sweep_kernel import SweepKernel, check_kernel_name
from repro.cp.als import _kernel_seed, check_als_arguments, cp_als, CPALSResult
from repro.exceptions import DistributionError
from repro.observe.tracer import trace
from repro.parallel.dimtree import DistributedDimtreeKernel
from repro.parallel.distribution import check_block_extents
from repro.parallel.general import GeneralKernel
from repro.parallel.grid_selection import choose_general_grid, choose_stationary_grid
from repro.parallel.machine import SimulatedMachine
from repro.parallel.stationary import StationaryKernel
from repro.resilience.checkpoint import CheckpointState, CheckpointStore
from repro.tensor.dense import as_ndarray
from repro.utils.validation import check_positive_int, check_rank

#: MTTKRP kernels resolvable by :func:`parallel_cp_als`, mirroring the
#: sequential registry (:data:`repro.cp.als.KERNEL_NAMES`): ``"exact"`` runs
#: Algorithm 3 and ``"general"`` Algorithm 4 as sweep kernels that scatter
#: the tensor once per run; ``"dimtree"``, the default, runs the sweep-aware
#: distributed dimension-tree kernel of :mod:`repro.parallel.dimtree`
#: (gathers each factor once per update instead of once per mode, local
#: trees reuse partial contractions);
#: ``"sampled"`` the distributed sampled kernel of
#: :mod:`repro.sketch.parallel` drawing from the product-of-factor-leverage
#: distribution, ``"sampled-tree"`` the same kernel drawing from the
#: segment-tree exact leverage sampler (``distribution="tree-leverage"``,
#: Gram-All-Reduce-only setup), as in the sequential registry, and
#: ``"sampled-dimtree"`` the fused kernel of
#: :mod:`repro.sketch.parallel.sampled_dimtree` (cached per-update factor
#: All-Gathers plus a per-update Gram All-Reduce only; draws bitwise equal
#: to the sequential fused kernel).  Every name but ``"general"`` runs on the
#: stationary distribution.  The sketch subsystem is imported lazily
#: — it layers on this driver, so a module-level import would be circular.
#: Name validation is shared with the sequential registry via
#: :func:`repro.core.sweep_kernel.check_kernel_name`.
PARALLEL_KERNEL_NAMES = (
    "exact",
    "general",
    "dimtree",
    "sampled",
    "sampled-tree",
    "sampled-dimtree",
)


class _SweepWordCounter(SweepKernel):
    """Forward the sweep protocol to the inner kernel; record per-sweep words.

    A sweep's entry is the largest growth of any one rank's
    ``max(sent, received)`` since the sweep began, so it counts only that
    sweep's words: not what the machine held before the run, not another
    sweep's, and the same after a resume or an ``on_fault`` recompute.
    """

    def __init__(
        self,
        inner: SweepKernel,
        machine: SimulatedMachine,
        words_per_iteration: List[int],
    ) -> None:
        self.inner = inner
        self.exact = inner.exact
        self.machine = machine
        self.words_per_iteration = words_per_iteration
        self._sweep_start = np.zeros(machine.n_procs, dtype=np.int64)

    def _per_rank_words(self) -> np.ndarray:
        return np.maximum(self.machine.words_sent, self.machine.words_received)

    def begin_sweep(self, iteration: int) -> None:
        self._sweep_start = self._per_rank_words()
        self.words_per_iteration.append(0)
        self.inner.begin_sweep(iteration)

    def factor_updated(self, mode: int, factor: np.ndarray) -> None:
        self.inner.factor_updated(mode, factor)

    def mttkrp(self, tensor, factors, mode) -> np.ndarray:
        result = self.inner.mttkrp(tensor, factors, mode)
        grown = self._per_rank_words() - self._sweep_start
        self.words_per_iteration[-1] = int(grown.max())
        return result

    # -- checkpoint/restore: forward; the counter keeps no cross-sweep state.
    def capture_state(self) -> Optional[dict]:
        return self.inner.capture_state()

    def restore_state(self, state: Optional[dict]) -> None:
        self.inner.restore_state(state)

    def invalidate_caches(self) -> bool:
        return self.inner.invalidate_caches()


@dataclass
class ParallelCPALSResult:
    """Outcome of a simulated-parallel CP-ALS run.

    Attributes
    ----------
    als:
        The underlying sequential-quality :class:`CPALSResult` (fits, model).
    machine:
        The simulated machine accumulating communication over all MTTKRPs.
    words_per_iteration:
        Max-per-rank words communicated in each ALS sweep.
    grids:
        A one-element list holding the run's processor grid: every kernel
        runs all of a run's MTTKRPs on one grid.
    algorithm:
        ``"general"`` for ``kernel="general"`` (Algorithm 4's distribution),
        ``"stationary"`` for every other kernel.
    """

    als: CPALSResult
    machine: SimulatedMachine
    words_per_iteration: List[int] = field(default_factory=list)
    grids: List[Sequence[int]] = field(default_factory=list)
    algorithm: str = "stationary"

    @property
    def total_words(self) -> int:
        """Max-per-rank words communicated over the whole run."""
        return self.machine.max_words_communicated


def parallel_cp_als(
    tensor,
    rank: int,
    n_procs: int,
    *,
    kernel: str = "dimtree",
    n_samples: Optional[int] = None,
    n_iter_max: int = 20,
    tol: float = 1e-7,
    seed: Union[None, int, np.random.Generator] = 0,
    init: Union[str, Sequence[np.ndarray]] = "random",
    threads: Optional[int] = None,
    machine: Optional[SimulatedMachine] = None,
    on_fault: str = "raise",
    checkpoint_store: Optional[CheckpointStore] = None,
    resume_from: Optional[CheckpointState] = None,
) -> ParallelCPALSResult:
    """Run CP-ALS with every MTTKRP executed on the simulated parallel machine.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor.
    rank:
        Target CP rank ``R``.
    n_procs:
        Number of simulated processors ``P``.  When the grid chosen for
        ``P`` splits a dimension into more parts than it has indices, every
        kernel but ``"sampled"`` and ``"sampled-tree"`` (which run on empty
        blocks) raises :class:`~repro.exceptions.DistributionError` before
        the first sweep.
    kernel:
        ``"dimtree"`` (the default: the sweep-aware distributed
        dimension-tree kernel — each factor is All-Gathered once per update
        instead of once per mode, and each rank's local tree reuses cached
        partial contractions, so it reads its block twice per sweep instead
        of ``N`` times; its ledger equals
        :func:`~repro.parallel.dimtree.predicted_dimtree_ledger` word for
        word), ``"exact"`` (Algorithm 3) and ``"general"`` (Algorithm 4, on
        the grid :func:`~repro.parallel.grid_selection.choose_general_grid`
        picks), both with the tensor scattered once per run,
        ``"sampled"`` or ``"sampled-tree"`` — the distributed sampled MTTKRP
        of :mod:`repro.sketch.parallel`, resampled on every invocation from
        the product-of-factor-leverage and the tree-leverage distribution
        respectively, as in the sequential registry — or
        ``"sampled-dimtree"`` — the fused kernel of
        :mod:`repro.sketch.parallel.sampled_dimtree` sampling each rank's
        cached dimension-tree partials by tree leverage.  A sampled run is
        sketched CP-ALS; to polish its model exactly, run this driver again
        with an exact kernel, the same ``machine`` and the sketched factors
        as ``init`` (weights folded into factor 0).  Every kernel but ``"general"``
        runs on the stationary grid of
        :func:`~repro.parallel.grid_selection.choose_stationary_grid`.
    n_samples:
        Draw count of the sampled kernels (``None`` for
        :func:`~repro.sketch.sampled_mttkrp.default_sample_count`, or a
        positive int), checked whichever kernel runs.
    n_iter_max, tol, init:
        Passed to the ALS driver.
    seed:
        Seed for the initialisation and the sampled kernels' draws, as in
        :func:`repro.cp.als.cp_als`: an int gives the draws a separate
        stream spawned from it, while a :class:`numpy.random.Generator` is
        one stream that the initialisation reads first and the draws
        continue.
    threads:
        Thread count for the per-rank local MTTKRPs of ``"exact"`` and
        ``"general"`` (``None`` consults ``REPRO_THREADS``, default 1);
        simulated ranks run as independent tasks, so fits, factors, and
        counted communication are bitwise identical for every value.  The
        tensor is scattered once per run, outside this fan-out, so the local
        MTTKRPs the threads share are most of such a sweep's time.  The
        other kernels, the default included, ignore it.
    machine:
        A pre-existing :class:`SimulatedMachine` to accumulate the run's
        communication; a fresh one is created otherwise.  Must have exactly
        ``n_procs`` ranks.  Pass a
        :class:`~repro.resilience.machine.FaultyMachine` to inject a
        :class:`~repro.resilience.faults.FaultSchedule` into every
        collective: dropped/corrupted attempts are re-driven with
        exponential backoff and charged to the machine's retry ledgers —
        delivered payloads are never corrupted, so fits and factors stay
        bitwise those of the fault-free run.
    on_fault, checkpoint_store, resume_from:
        Forwarded to :func:`repro.cp.als.cp_als` — the poisoned-MTTKRP
        policy and the checkpoint/resume protocol work identically under
        the distributed kernels.  Under the default kernel,
        ``on_fault="retry"`` recovers by invalidating the per-rank trees and
        the gather cache, and a checkpoint carries the gathered factor
        blocks and the per-rank cached partials (7.9 MiB per checkpoint at
        240^3, R=16, P=4, against 0.09 MiB under ``"exact"``).

    Returns
    -------
    ParallelCPALSResult
    """
    data = as_ndarray(tensor)
    rank = check_rank(rank)
    n_procs = check_positive_int(n_procs, "n_procs")
    check_kernel_name(kernel, PARALLEL_KERNEL_NAMES, registry="parallel", allow_callable=False)
    check_als_arguments(
        data.shape,
        rank,
        n_iter_max=n_iter_max,
        tol=tol,
        init=init,
        threads=threads,
    )
    if n_samples is not None:
        n_samples = check_positive_int(n_samples, "n_samples")
    sampled = kernel in ("sampled", "sampled-tree")
    fused = kernel == "sampled-dimtree"

    if machine is None:
        machine = SimulatedMachine(n_procs)
    elif machine.n_procs != n_procs:
        raise DistributionError(
            f"machine has {machine.n_procs} processors but n_procs={n_procs}"
        )
    if kernel == "general":
        algorithm = "general"
        grid = choose_general_grid(data.shape, rank, n_procs)
    else:
        algorithm = "stationary"
        grid = choose_stationary_grid(data.shape, rank, n_procs)
    if not sampled:
        # The per-call sampled kernels run on empty blocks; the others cannot.
        check_block_extents(data.shape, rank, grid)

    words_per_iteration: List[int] = []

    inner: SweepKernel
    if kernel == "dimtree":
        inner = DistributedDimtreeKernel(grid, machine=machine)
    elif sampled or fused:
        # Lazy imports: the sampled kernels live in the sketch subsystem,
        # which layers on this driver.  They draw from the sequential
        # registry's stream (a Generator seed is shared with the
        # initialisation, an int seed spawns a separate stream) and from its
        # distributions; construct the fused kernel directly for the others.
        from repro.sketch.parallel.sampled_dimtree import DistributedSampledDimtreeKernel
        from repro.sketch.parallel.sampled_mttkrp import ParallelSampledKernel

        sampled_kernel = DistributedSampledDimtreeKernel if fused else ParallelSampledKernel
        inner = sampled_kernel(
            grid,
            machine=machine,
            n_samples=n_samples,
            distribution="product-leverage" if kernel == "sampled" else "tree-leverage",
            seed=_kernel_seed(seed),
        )
    else:
        exact_kernel = GeneralKernel if kernel == "general" else StationaryKernel
        inner = exact_kernel(grid, machine=machine, threads=threads)

    with trace(
        "parallel-als",
        kernel=kernel,
        algorithm=algorithm,
        n_procs=n_procs,
        grid=[int(g) for g in grid],
    ):
        als_result = cp_als(
            data,
            rank,
            n_iter_max=n_iter_max,
            tol=tol,
            seed=seed,
            init=init,
            kernel=_SweepWordCounter(inner, machine, words_per_iteration),
            on_fault=on_fault,
            checkpoint_store=checkpoint_store,
            resume_from=resume_from,
        )
    return ParallelCPALSResult(
        als=als_result,
        machine=machine,
        words_per_iteration=words_per_iteration,
        grids=[grid],
        algorithm=algorithm,
    )
