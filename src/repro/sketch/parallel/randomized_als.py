"""Distributed-memory randomized CP-ALS on the simulated machine.

The sequential :func:`repro.sketch.randomized_als.randomized_cp_als` layers a
sampled kernel onto the shared ALS driver; this module does the same with the
*distributed* sampled kernel, so every sketched sweep's communication is
measured on a :class:`~repro.parallel.machine.SimulatedMachine` ledger:

* **per-iteration resampling** — every mode update of every sweep draws a
  fresh :class:`SampleSet` from a single generator;
* **rank-consistent seeding** — the draw is replicated on every simulated
  rank from that shared stream (charged via the setup collectives of
  :func:`~repro.sketch.parallel.sampled_mttkrp.charge_sampling_setup`), so
  all ranks agree on the samples without sending them, and the whole run is
  reproducible from one seed;
* **exact-solve fallback** — when the sketched model misses ``min_fit`` (or
  goes non-finite), a few Algorithm 3 exact-kernel sweeps polish it *on the
  same machine* and grid, so the ledger also shows what the rescue cost; the
  fallback's :class:`~repro.parallel.stationary.StationaryKernel` scatters
  the tensor once for all of its sweeps.

The generator-consumption order matches the sequential randomized driver
exactly (initialisation first, then one draw per kernel call), so under the
same seed the distributed run sees the same draws and reproduces the
sequential fits to machine precision.

The sketched run's per-sweep words are counted the way
:func:`~repro.cp.parallel_als.parallel_cp_als` counts them, by wrapping the
kernel in that driver's sweep word counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.sweep_kernel import PerCallKernel
from repro.cp.als import CPALSResult, cp_als
from repro.cp.parallel_als import _SweepWordCounter
from repro.parallel.grid_selection import choose_stationary_grid
from repro.parallel.machine import SimulatedMachine
from repro.parallel.stationary import StationaryKernel
from repro.sketch.parallel.sampled_mttkrp import parallel_sampled_mttkrp
from repro.sketch.randomized_als import _check_randomized_options, _weighted_init
from repro.sketch.sampled_mttkrp import default_sample_count
from repro.sketch.sampling import SeedLike, _as_generator, check_distribution
from repro.tensor.dense import as_ndarray
from repro.tensor.kruskal import KruskalTensor
from repro.utils.validation import check_positive_int, check_rank


@dataclass
class ParallelRandomizedCPALSResult:
    """Outcome of a distributed randomized CP-ALS run.

    Attributes
    ----------
    model:
        The final fitted :class:`~repro.tensor.kruskal.KruskalTensor` (from
        the fallback when it ran, otherwise from the sketched run).
    sketched:
        The :class:`CPALSResult` of the sketched run (its ``fits`` are
        sampled estimates).
    machine:
        The simulated machine accumulating the communication of every
        sampled MTTKRP (and of the fallback's exact MTTKRPs, when it ran).
    words_per_iteration:
        Max-per-rank words communicated in each sketched ALS sweep.
    grid:
        The processor grid used for every MTTKRP.
    exact_fit:
        Exact fit ``1 - ||X - X_hat|| / ||X||`` of ``model``.
    used_fallback:
        Whether the exact-solve fallback ran.
    fallback:
        The fallback's :class:`CPALSResult` (``None`` when the sketched run
        sufficed).
    fallback_words:
        Max-per-rank words the exact fallback sweeps added to the ledger.
    n_samples, distribution:
        Draws per MTTKRP invocation and the sampling distribution.
    """

    model: KruskalTensor
    sketched: CPALSResult
    machine: SimulatedMachine
    words_per_iteration: List[int] = field(default_factory=list)
    grid: Tuple[int, ...] = ()
    exact_fit: float = 0.0
    used_fallback: bool = False
    fallback: Optional[CPALSResult] = None
    fallback_words: int = 0
    n_samples: int = 0
    distribution: str = "product-leverage"

    @property
    def total_words(self) -> int:
        """Max-per-rank words communicated over the whole run (fallback included)."""
        return self.machine.max_words_communicated

    @property
    def n_iterations(self) -> int:
        """Total ALS sweeps across the sketched run and the fallback."""
        return self.sketched.n_iterations + (
            self.fallback.n_iterations if self.fallback is not None else 0
        )

    @property
    def mttkrp_calls(self) -> int:
        """Total MTTKRP invocations (sampled plus exact fallback)."""
        return self.sketched.mttkrp_calls + (
            self.fallback.mttkrp_calls if self.fallback is not None else 0
        )


def parallel_randomized_cp_als(
    tensor,
    rank: int,
    n_procs: int,
    *,
    n_samples: Optional[int] = None,
    distribution: str = "product-leverage",
    n_iter_max: int = 20,
    tol: float = 1e-6,
    init: Union[str, Sequence[np.ndarray]] = "random",
    seed: SeedLike = 0,
    min_fit: Optional[float] = None,
    fallback_sweeps: int = 10,
    grid_dims: Optional[Sequence[int]] = None,
    charge_setup: bool = True,
) -> ParallelRandomizedCPALSResult:
    """Fit a CP decomposition with distributed sampled MTTKRPs and a fallback.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor.
    rank:
        Target CP rank ``R``.
    n_procs:
        Number of simulated processors ``P``.
    n_samples:
        Draws per MTTKRP invocation, a positive int (default
        :func:`~repro.sketch.sampled_mttkrp.default_sample_count`).
    distribution:
        Sampling distribution for the kernel.
    n_iter_max, tol, init:
        Passed to the ALS driver for the sketched run.
    seed:
        Seed or generator driving initialisation *and* all resampling (the
        rank-consistent shared stream).
    min_fit:
        ``None`` or a finite real.  When set, the exact fit of the sketched
        model must reach this value or the exact-solve fallback polishes it
        with up to ``fallback_sweeps`` Algorithm 3 sweeps on the same
        machine.  The fallback also triggers on non-finite sketched results.
    fallback_sweeps:
        Maximum exact sweeps the fallback may spend, a non-negative int
        (0 never falls back).
    grid_dims:
        Explicit ``N``-way processor grid (default: the exact stationary
        grid — a single grid must serve every output mode of the sweep).
    charge_setup:
        Charge the per-draw distribution-setup collectives (Gram All-Reduce
        and score gathers) on every kernel call.

    Returns
    -------
    ParallelRandomizedCPALSResult
    """
    data = as_ndarray(tensor)
    rank = check_rank(rank)
    n_procs = check_positive_int(n_procs, "n_procs")
    check_distribution(distribution)
    n_samples, min_fit, fallback_sweeps = _check_randomized_options(
        n_samples, min_fit, fallback_sweeps
    )
    if n_samples is None:
        n_samples = default_sample_count(rank)
    grid = tuple(grid_dims) if grid_dims is not None else choose_stationary_grid(
        data.shape, rank, n_procs
    )
    machine = SimulatedMachine(n_procs)
    rng = _as_generator(seed)

    def sampled_kernel(local_tensor, factors, mode):
        return parallel_sampled_mttkrp(
            local_tensor,
            factors,
            mode,
            grid,
            n_samples=n_samples,
            distribution=distribution,
            seed=rng,
            machine=machine,
            charge_setup=charge_setup,
        ).assemble()

    words_per_iteration: List[int] = []
    sketched = cp_als(
        data,
        rank,
        n_iter_max=n_iter_max,
        tol=tol,
        init=init,
        seed=rng,
        kernel=_SweepWordCounter(
            PerCallKernel(sampled_kernel), machine, data.ndim, words_per_iteration
        ),
    )

    model = sketched.model
    finite = all(np.all(np.isfinite(f)) for f in model.factors) and np.all(
        np.isfinite(model.weights)
    )
    exact_fit = model.fit(data) if finite else -np.inf

    fallback_result: Optional[CPALSResult] = None
    fallback_words = 0
    needs_fallback = (not finite) or (min_fit is not None and exact_fit < min_fit)
    if needs_fallback and fallback_sweeps > 0:
        words_before = machine.max_words_communicated
        fallback_init: Union[str, Sequence[np.ndarray]]
        fallback_init = _weighted_init(model) if finite else "random"
        fallback_result = cp_als(
            data,
            rank,
            n_iter_max=fallback_sweeps,
            tol=tol,
            init=fallback_init,
            seed=rng,
            kernel=StationaryKernel(grid, machine=machine),
        )
        model = fallback_result.model
        exact_fit = model.fit(data)
        fallback_words = machine.max_words_communicated - words_before

    return ParallelRandomizedCPALSResult(
        model=model,
        sketched=sketched,
        machine=machine,
        words_per_iteration=words_per_iteration,
        grid=grid,
        exact_fit=float(exact_fit),
        used_fallback=fallback_result is not None,
        fallback=fallback_result,
        fallback_words=int(fallback_words),
        n_samples=int(n_samples),
        distribution=distribution,
    )
