"""Measured-vs-modelled reconciliation for the distributed sampled MTTKRP.

Three quantities are put side by side for one problem / grid / draw:

* **measured** — the per-rank word counts the
  :class:`~repro.parallel.machine.SimulatedMachine` ledger actually recorded
  when :func:`~repro.sketch.parallel.sampled_mttkrp.parallel_sampled_mttkrp`
  ran (split into setup and kernel phases via the trace labels);
* **predicted** — an exact replay of every collective the implementation
  issues, computed from the bucket cost helpers of
  :mod:`repro.parallel.collectives` without running the algorithm.  The
  ledger must match this number word for word (the tests assert equality) —
  it is the cost model's bound on the measured run;
* **modelled / bounds** — the closed-form idealizations: the
  :func:`~repro.sketch.costmodel.parallel_sampled_words` sampled model, the
  exact stationary algorithm's cost on its own best grid (both the
  analytic :func:`~repro.parallel.grid_selection.stationary_grid_cost` and a
  measured exact run), and the paper's combined parallel lower bound — the
  word count *any exact* MTTKRP is provably required to move.

A sampled run whose measured words fall strictly below the exact-algorithm
words (and, for small sample counts, below the exact lower bound) is the
measured face of the randomization trade-off that PR 1 only modelled.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.bounds.parallel import combined_parallel_lower_bound
from repro.core.kernels import mttkrp
from repro.parallel.collectives import bucket_all_reduce_cost
from repro.parallel.dimtree import output_reduce_scatter_words
from repro.parallel.grid import ProcessorGrid
from repro.parallel.distribution import StationaryDistribution
from repro.parallel.grid_selection import choose_stationary_grid, stationary_grid_cost
from repro.parallel.machine import SimulatedMachine
from repro.parallel.stationary import stationary_mttkrp
from repro.sketch.costmodel import parallel_sampled_words
from repro.sketch.parallel.distribution import SampleAssignment, choose_sampled_grid
from repro.sketch.parallel.sampled_mttkrp import (
    SETUP_LABEL,
    parallel_sampled_mttkrp,
)
from repro.sketch.sampled_mttkrp import default_sample_count
from repro.sketch.sampling import SampleSet, SeedLike
from repro.tensor.dense import as_ndarray
from repro.utils.validation import check_mode, infer_rank


def predicted_sampled_ledger(
    shape: Sequence[int],
    rank: int,
    mode: int,
    grid_dims: Sequence[int],
    samples: SampleSet,
) -> np.ndarray:
    """Per-rank words sent (= received) the sampled kernel will charge.

    Replays every collective of
    :func:`~repro.sketch.parallel.sampled_mttkrp.parallel_sampled_mttkrp`
    symbolically — same groups, same block sizes, same bucket costs — so the
    returned array equals the machine's ``words_sent`` (and ``words_received``)
    exactly.  This is the subsystem's tight cost model: "measured within the
    predicted bound" means measured ``==`` predicted.
    """
    grid = ProcessorGrid(grid_dims)
    dist = StationaryDistribution(shape, rank, mode, grid)
    assignment = SampleAssignment(dist, samples)
    words = np.zeros(grid.n_procs, dtype=np.int64)
    n_procs = grid.n_procs
    ndim = len(dist.shape)

    if samples.distribution != "uniform":
        group = list(range(n_procs))
        for k in range(ndim):
            if k == mode:
                continue
            chunk_rows = [len(dist.factor_local_rows(k, r)) for r in group]
            if samples.distribution == "leverage":
                # full factor All-Gather: blocks of (chunk_rows x R)
                w = max(chunk_rows) * rank
                words[group] += (n_procs - 1) * w
            else:  # product-leverage / tree-leverage: Gram All-Reduce
                words[group] += bucket_all_reduce_cost(n_procs, rank * rank)
                if samples.distribution != "tree-leverage":
                    # per-row leverage score All-Gather: 1-D chunks (the
                    # setup term the tree sampler eliminates)
                    words[group] += (n_procs - 1) * max(chunk_rows)

    # sampled factor-row All-Gathers per hyperslice
    for k in range(ndim):
        if k == mode:
            continue
        for pk in range(grid.dims[k]):
            group = grid.slice_group({k: pk})
            w = max(
                len(assignment.rank_gather_contribution(k, r)) for r in group
            ) * rank
            words[group] += (len(group) - 1) * w

    return words + output_reduce_scatter_words(dist, mode)


@dataclass(frozen=True)
class ReconciledSampledRun:
    """One measured-vs-modelled point of the sampled-parallel frontier.

    Attributes
    ----------
    shape, rank, mode, n_procs, grid:
        Problem configuration and the sampled algorithm's grid.
    distribution, n_draws, distinct_rows:
        The draw (costs scale with ``distinct_rows``).
    measured_words:
        Max per-rank ``max(sent, received)`` of the sampled run, setup
        included.
    measured_setup_words, measured_kernel_words:
        The same total split into the distribution-setup phase and the
        gather/reduce kernel phase (per-rank, from the trace).
    predicted_words:
        Max per-rank words of :func:`predicted_sampled_ledger` — the exact
        cost-model bound the measured ledger must meet word for word.
    modelled_words:
        The closed-form :func:`~repro.sketch.costmodel.parallel_sampled_words`
        idealization at ``distinct_rows`` samples.
    exact_words_measured:
        Max per-rank words of a *measured* Algorithm 3 run on its own best
        grid (the honest exact baseline).
    exact_words_modelled:
        :func:`~repro.parallel.grid_selection.stationary_grid_cost` on that
        grid (Eq. (14)'s per-processor accounting).
    lower_bound_words:
        The paper's combined parallel lower bound — what any exact MTTKRP
        must move per processor.
    rel_error:
        Relative Frobenius error of the assembled estimate vs the exact
        MTTKRP.
    beats_exact:
        ``measured_words < exact_words_measured`` — the sampled run moved
        strictly fewer words than the measured exact algorithm.
    beats_lower_bound:
        ``measured_words < lower_bound_words`` — it moved fewer words than
        any exact algorithm is *allowed* to.
    """

    shape: Tuple[int, ...]
    rank: int
    mode: int
    n_procs: int
    grid: Tuple[int, ...]
    distribution: str
    n_draws: int
    distinct_rows: int
    measured_words: int
    measured_setup_words: int
    measured_kernel_words: int
    predicted_words: int
    modelled_words: float
    exact_words_measured: int
    exact_words_modelled: int
    lower_bound_words: float
    rel_error: float
    beats_exact: bool
    beats_lower_bound: bool

    def to_dict(self) -> dict:
        """JSON-serialisable dictionary (lists instead of tuples)."""
        out = asdict(self)
        out["shape"] = list(self.shape)
        out["grid"] = list(self.grid)
        return out


def reconcile_sampled_mttkrp(
    tensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    n_procs: int,
    *,
    n_samples: Optional[int] = None,
    distribution: str = "product-leverage",
    seed: SeedLike = None,
    grid_dims: Optional[Sequence[int]] = None,
) -> ReconciledSampledRun:
    """Run the distributed sampled MTTKRP and reconcile its ledger.

    Parameters
    ----------
    tensor, factors, mode:
        The MTTKRP instance (a dense tensor).
    n_procs:
        Number of simulated processors ``P``.
    n_samples, distribution, seed:
        The draw, with the defaults of
        :func:`~repro.sketch.parallel.sampled_mttkrp.parallel_sampled_mttkrp`:
        :func:`~repro.sketch.sampled_mttkrp.default_sample_count` draws from
        ``"product-leverage"``.
    grid_dims:
        Explicit sampled grid; default
        :func:`~repro.sketch.parallel.distribution.choose_sampled_grid`.

    Returns
    -------
    ReconciledSampledRun
    """
    tensor = as_ndarray(tensor)
    shape = tensor.shape
    mode = check_mode(mode, len(shape))
    rank = infer_rank(factors, mode)
    if n_samples is None:
        n_samples = default_sample_count(rank)
    if grid_dims is None:
        grid_dims = choose_sampled_grid(shape, rank, mode, n_samples, n_procs)

    run = parallel_sampled_mttkrp(
        tensor,
        factors,
        mode,
        grid_dims,
        n_samples=n_samples,
        distribution=distribution,
        seed=seed,
    )
    machine = run.machine
    measured = machine.max_words_communicated

    setup_per_rank = np.zeros(machine.n_procs, dtype=np.int64)
    for record in machine.records:
        if record.label.startswith(SETUP_LABEL):
            setup_per_rank[list(record.group)] += record.words_per_rank
    measured_setup = int(setup_per_rank.max())
    kernel_per_rank = np.maximum(machine.words_sent, machine.words_received) - setup_per_rank
    measured_kernel = int(kernel_per_rank.max())

    predicted = int(predicted_sampled_ledger(shape, rank, mode, grid_dims, run.samples).max())

    exact_grid = choose_stationary_grid(shape, rank, n_procs)
    exact_run = stationary_mttkrp(tensor, factors, mode, exact_grid)
    exact_measured = exact_run.max_words_communicated
    exact_modelled = stationary_grid_cost(shape, rank, exact_grid)

    reference = mttkrp(tensor, factors, mode)
    estimate = run.assemble()
    norm = float(np.linalg.norm(reference))
    rel_error = float(np.linalg.norm(estimate - reference)) / max(norm, 1e-12)

    bound = combined_parallel_lower_bound(shape, rank, n_procs).combined
    modelled = parallel_sampled_words(
        shape, rank, mode, max(run.samples.n_distinct, 1), n_procs
    )

    return ReconciledSampledRun(
        shape=tuple(int(d) for d in shape),
        rank=rank,
        mode=mode,
        n_procs=int(n_procs),
        grid=tuple(int(g) for g in grid_dims),
        distribution=run.samples.distribution,
        n_draws=run.samples.n_draws,
        distinct_rows=run.samples.n_distinct,
        measured_words=int(measured),
        measured_setup_words=measured_setup,
        measured_kernel_words=measured_kernel,
        predicted_words=predicted,
        modelled_words=float(modelled),
        exact_words_measured=int(exact_measured),
        exact_words_modelled=int(exact_modelled),
        lower_bound_words=float(bound),
        rel_error=rel_error,
        beats_exact=bool(measured < exact_measured),
        beats_lower_bound=bool(measured < bound),
    )
