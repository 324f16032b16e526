"""CP-ALS whose MTTKRPs run on the simulated distributed machine.

This driver measures the communication that the MTTKRP kernels contribute to
a full CP-ALS workload: every mode update performs its MTTKRP with
Algorithm 3 (or Algorithm 4) on a :class:`~repro.parallel.SimulatedMachine`
and the per-iteration word counts are recorded.  The exact kernels
(:class:`~repro.parallel.stationary.StationaryKernel`,
:class:`~repro.parallel.general.GeneralKernel`) scatter the tensor once per
run, as the paper's stationary tensor implies, and run each MTTKRP's
collectives and local kernels on those blocks.  The small dense linear
algebra of the normal equations (R x R solves and Gram updates) is treated as
replicated — its communication is lower order, exactly as in the paper's
discussion of the CP-ALS context (Section VII).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.sweep_kernel import PerCallKernel, SweepKernel, check_kernel_name
from repro.cp.als import check_als_arguments, cp_als, CPALSResult
from repro.exceptions import DistributionError, ParameterError
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
#: Algorithm 3/4 as a sweep kernel that scatters the tensor once per run,
#: ``"dimtree"`` the sweep-aware distributed dimension-tree
#: kernel of :mod:`repro.parallel.dimtree` (gathers each factor once per
#: update instead of once per mode, local trees reuse partial contractions),
#: ``"sampled"`` the distributed sampled kernel of
#: :mod:`repro.sketch.parallel` with a caller-chosen distribution,
#: ``"sampled-tree"`` the same kernel pinned to the segment-tree exact
#: leverage sampler (``distribution="tree-leverage"``, Gram-All-Reduce-only
#: setup), and ``"sampled-dimtree"`` the fused kernel of
#: :mod:`repro.sketch.parallel.sampled_dimtree` (cached per-update factor
#: All-Gathers plus a per-update Gram All-Reduce only; draws bitwise equal
#: to the sequential fused kernel).  The sketch subsystem is imported lazily
#: — it layers on this driver, so a module-level import would be circular.
#: Name validation is shared with the sequential registry via
#: :func:`repro.core.sweep_kernel.check_kernel_name`.
PARALLEL_KERNEL_NAMES = ("exact", "dimtree", "sampled", "sampled-tree", "sampled-dimtree")


class _SweepWordCounter(SweepKernel):
    """Forward the sweep protocol to the inner kernel; record per-sweep words."""

    def __init__(
        self,
        inner: SweepKernel,
        machine: SimulatedMachine,
        ndim: int,
        words_per_iteration: List[int],
    ) -> None:
        self.inner = inner
        self.machine = machine
        self.ndim = ndim
        self.words_per_iteration = words_per_iteration
        self._calls = 0
        self._words_before = 0

    def begin_sweep(self, iteration: int) -> None:
        self.inner.begin_sweep(iteration)

    def factor_updated(self, mode: int, factor: np.ndarray) -> None:
        self.inner.factor_updated(mode, factor)

    def mttkrp(self, tensor, factors, mode) -> np.ndarray:
        result = self.inner.mttkrp(tensor, factors, mode)
        self._calls += 1
        if self._calls % self.ndim == 0:
            current = self.machine.max_words_communicated
            self.words_per_iteration.append(current - self._words_before)
            self._words_before = current
        return result

    # -- checkpoint/restore: forward, adding this counter's own call state.
    def capture_state(self) -> Optional[dict]:
        return {
            "kind": "sweep-word-counter",
            "calls": self._calls,
            "inner": self.inner.capture_state(),
        }

    def restore_state(self, state: Optional[dict]) -> None:
        if state is None:
            return
        self._calls = int(state["calls"])
        # Per-sweep deltas of the resumed run are measured from the resumed
        # machine's current ledger, whatever it already accumulated.
        self._words_before = self.machine.max_words_communicated
        self.inner.restore_state(state["inner"])

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
        The processor grid used for each mode's MTTKRP.
    algorithm:
        ``"stationary"`` or ``"general"``.
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
    algorithm: str = "stationary",
    kernel: str = "exact",
    n_samples: Optional[int] = None,
    sample_distribution: str = "product-leverage",
    n_iter_max: int = 20,
    tol: float = 1e-7,
    seed: Union[None, int, np.random.Generator] = 0,
    init: Union[str, Sequence[np.ndarray]] = "random",
    invalidation: str = "exact",
    invalidation_tol: float = 1e-2,
    threads: Optional[int] = None,
    machine: Optional[SimulatedMachine] = None,
    fault_schedule=None,
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
    algorithm:
        ``"stationary"`` (Algorithm 3) or ``"general"`` (Algorithm 4).
    kernel:
        ``"exact"`` (the selected algorithm, with the tensor scattered once
        per run), ``"dimtree"`` (the sweep-aware
        distributed dimension-tree kernel — each factor is All-Gathered once
        per update instead of once per mode and the local MTTKRPs reuse
        cached partial contractions; requires ``algorithm="stationary"``),
        ``"sampled"``, or ``"sampled-tree"`` — the distributed sampled MTTKRP
        of :mod:`repro.sketch.parallel`, resampled on every invocation
        (requires ``algorithm="stationary"``; ``"sampled-tree"`` pins
        ``sample_distribution="tree-leverage"``), or ``"sampled-dimtree"``
        — the fused kernel of :mod:`repro.sketch.parallel.sampled_dimtree`
        sampling each rank's cached dimension-tree partials (also
        stationary-only; see
        :func:`repro.sketch.parallel.parallel_randomized_cp_als` for the full
        randomized driver with an exact-solve fallback).
    n_samples, sample_distribution:
        Draw count (``None`` or a positive int, checked whichever kernel
        runs) and sampling distribution for the sampled kernels
        (defaults mirror the sequential registry entry;
        ``sample_distribution`` is pinned to ``"tree-leverage"`` by the
        tree-backed kernels ``"sampled-tree"`` and ``"sampled-dimtree"``).
    n_iter_max, tol, seed, init:
        Passed to the ALS driver.
    invalidation, invalidation_tol:
        Cache-invalidation policy of the dimension-tree kernels
        (``"dimtree"`` / ``"sampled-dimtree"``), mirroring
        :func:`repro.cp.als.cp_als`: ``"residual"`` gates re-gathers, Gram
        All-Reduces, and cached partials on the factor's accumulated
        relative drift instead of invalidating on every replacement.
    threads:
        Thread count for the ``"exact"`` kernel's per-rank local MTTKRPs
        (``None`` consults ``REPRO_THREADS``, default 1); simulated ranks
        run as independent tasks, so fits, factors, and counted
        communication are bitwise identical for every value.  The tensor is
        scattered once per run, outside this fan-out, so the local MTTKRPs
        the threads share are most of an exact sweep's time.  The other
        kernels ignore it.
    machine:
        A pre-existing :class:`SimulatedMachine` (or
        :class:`~repro.resilience.machine.FaultyMachine`) to accumulate the
        run's communication; a fresh one is created otherwise.  Must have
        exactly ``n_procs`` ranks.
    fault_schedule:
        A :class:`~repro.resilience.faults.FaultSchedule`: the run executes
        on a :class:`~repro.resilience.machine.FaultyMachine` injecting the
        scheduled faults into every collective (mutually exclusive with an
        explicit ``machine``).  Dropped/corrupted attempts are re-driven
        with exponential backoff and charged to the machine's retry ledgers
        — delivered payloads are never corrupted, so fits and factors stay
        bitwise those of the fault-free run.
    on_fault, checkpoint_store, resume_from:
        Forwarded to :func:`repro.cp.als.cp_als` — the poisoned-MTTKRP
        policy and the checkpoint/resume protocol work identically under
        the distributed kernels.

    Returns
    -------
    ParallelCPALSResult
    """
    data = as_ndarray(tensor)
    rank = check_rank(rank)
    n_procs = check_positive_int(n_procs, "n_procs")
    if algorithm not in ("stationary", "general"):
        raise ParameterError("algorithm must be 'stationary' or 'general'")
    check_kernel_name(kernel, PARALLEL_KERNEL_NAMES, registry="parallel", allow_callable=False)
    check_als_arguments(
        data.shape,
        rank,
        n_iter_max=n_iter_max,
        tol=tol,
        init=init,
        invalidation=invalidation,
        invalidation_tol=invalidation_tol,
        threads=threads,
    )
    if n_samples is not None:
        n_samples = check_positive_int(n_samples, "n_samples")
    sampled = kernel in ("sampled", "sampled-tree")
    fused = kernel == "sampled-dimtree"
    if kernel != "exact" and algorithm != "stationary":
        raise ParameterError(
            f"kernel={kernel!r} runs on the stationary distribution; use algorithm='stationary'"
        )
    if kernel in ("sampled-tree", "sampled-dimtree"):
        # Both tree-backed kernels pin the draw distribution: exact leverage
        # via cached segment trees, matching the sequential registry entry
        # (construct DistributedSampledDimtreeKernel directly for the other
        # fused distributions).
        sample_distribution = "tree-leverage"

    if machine is not None and fault_schedule is not None:
        raise ParameterError(
            "pass either a pre-built machine or a fault_schedule, not both "
            "(build a FaultyMachine yourself to combine them)"
        )
    if machine is None:
        if fault_schedule is not None:
            # Lazy import: repro.resilience layers on the parallel machine.
            from repro.resilience.machine import FaultyMachine

            machine = FaultyMachine(n_procs, fault_schedule)
        else:
            machine = SimulatedMachine(n_procs)
    elif machine.n_procs != n_procs:
        raise DistributionError(
            f"machine has {machine.n_procs} processors but n_procs={n_procs}"
        )
    grids: List[Sequence[int]] = []
    if algorithm == "stationary":
        grid = choose_stationary_grid(data.shape, rank, n_procs)
    else:
        grid = choose_general_grid(data.shape, rank, n_procs)
    grids.append(grid)
    if not sampled:
        # The per-call sampled kernels run on empty blocks; the others cannot.
        check_block_extents(data.shape, rank, grid)

    sampled_mttkrp_parallel = None
    sample_rng: Union[None, np.random.SeedSequence, np.random.Generator] = None
    if sampled or fused:
        if sampled:
            from repro.sketch.parallel.sampled_mttkrp import parallel_sampled_mttkrp

            sampled_mttkrp_parallel = parallel_sampled_mttkrp
        if isinstance(seed, np.random.Generator):
            sample_rng = seed
        elif seed is None:
            sample_rng = np.random.default_rng()
        else:
            # Mirror the sequential registry: spawn an independent stream so
            # the kernel's draws are not the bit stream the initialisation
            # consumes.
            sample_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

    words_per_iteration: List[int] = []

    inner: SweepKernel
    if kernel == "dimtree":
        inner = DistributedDimtreeKernel(
            grid,
            machine=machine,
            invalidation=invalidation,
            residual_tol=invalidation_tol,
        )
    elif fused:
        # Lazy import, like the sampled kernels: the fused distributed kernel
        # lives in the sketch subsystem, which layers on this driver.
        from repro.sketch.parallel.sampled_dimtree import (
            DistributedSampledDimtreeKernel,
        )

        inner = DistributedSampledDimtreeKernel(
            grid,
            machine=machine,
            n_samples=n_samples,
            distribution=sample_distribution,
            seed=sample_rng,
            invalidation=invalidation,
            residual_tol=invalidation_tol,
        )
    elif sampled:

        def sampled_kernel(local_tensor, factors, mode):
            return sampled_mttkrp_parallel(
                local_tensor,
                factors,
                mode,
                grid,
                n_samples=n_samples,
                distribution=sample_distribution,
                seed=sample_rng,
                machine=machine,
            ).assemble()

        # The shared draw generator is the closure's only cross-call state;
        # hand it to the adapter so checkpoints capture the stream position.
        inner = PerCallKernel(sampled_kernel, rng=sample_rng)
    else:
        exact_kernel = StationaryKernel if algorithm == "stationary" else GeneralKernel
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
            kernel=_SweepWordCounter(inner, machine, data.ndim, words_per_iteration),
            on_fault=on_fault,
            checkpoint_store=checkpoint_store,
            resume_from=resume_from,
        )
    return ParallelCPALSResult(
        als=als_result,
        machine=machine,
        words_per_iteration=words_per_iteration,
        grids=grids,
        algorithm=algorithm,
    )
