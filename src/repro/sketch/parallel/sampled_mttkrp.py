"""Distributed-memory sampled MTTKRP on the simulated machine.

The sequential sampled kernel (:mod:`repro.sketch.sampled_mttkrp`) *models*
its communication; this module *measures* it.  The tensor and factor matrices
are distributed exactly as in Algorithm 3 (stationary sub-tensors on an
``N``-way grid, factor block rows chunked across hyperslices) and every word
that moves is charged to a :class:`~repro.parallel.machine.SimulatedMachine`
ledger:

1. *sampling setup* (strategy dependent) — an All-Reduce of the small
   ``R x R`` factor Gram matrices plus an All-Gather of the per-row leverage
   scores (``"product-leverage"``), or a full factor All-Gather
   (``"leverage"``, the documented non-scalable strategy); ``"uniform"``
   needs no communication.  The draw itself is replicated with a shared seed
   on every rank — rank-consistent seeding — so it is performed here by the
   *same* :func:`~repro.sketch.sampling.draw_krp_samples` call the sequential
   kernel makes, making the drawn :class:`SampleSet` bitwise identical to the
   sequential kernel's under the same seed;
2. *sampled factor-row All-Gathers* — within each mode-``k`` hyperslice, only
   the distinct sampled rows of the block are gathered (bucket cost on the
   sampled blocks), instead of Algorithm 3's full block rows;
3. *local sampled MTTKRP* — each rank forms the Khatri-Rao rows of the
   samples its sub-tensor owns, gathers the matching local fiber segments,
   and multiplies.  The tensor stays where it is, as Algorithm 3's
   stationary tensor does: each rank reads its block as a view, so a call
   copies no block.  The fibers come from the sequential kernel's gather,
   given the rank's block ranges and the mask of the samples it owns;
4. *output Reduce-Scatter* — Algorithm 3's Line 7
   (:func:`~repro.parallel.stationary.reduce_scatter_output`): partial
   outputs are summed and redistributed within each output-mode hyperslice,
   leaving the output distributed exactly like Algorithm 3's.

Every per-rank input of the local GEMM (sampled Khatri-Rao rows, estimator
weights, fiber segments) is bitwise identical to the corresponding slice of
the sequential kernel's operands; the only divergence channel is the
floating-point summation order when a grid splits the sample space, which the
tests bound at machine precision.

:class:`ParallelSampledKernel` runs one such MTTKRP per call as the sweep
kernel of ``parallel_cp_als(kernel="sampled")`` and ``"sampled-tree"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.sweep_kernel import SweepKernel
from repro.exceptions import DistributionError, ParameterError
from repro.parallel.collectives import all_gather, all_reduce
from repro.parallel.distribution import DistributedMTTKRPOutput, StationaryDistribution
from repro.parallel.grid import ProcessorGrid
from repro.parallel.machine import SimulatedMachine
from repro.parallel.stationary import reduce_scatter_output
from repro.sketch.parallel.distribution import SampleAssignment
from repro.sketch.sampled_mttkrp import (
    _gather_fibers_dense,
    default_sample_count,
    estimator_gemm,
)
from repro.sketch.sampling import SampleSet, SeedLike, _as_generator, draw_krp_samples
from repro.tensor.dense import as_ndarray
from repro.utils.validation import (
    check_factor_matrices,
    check_mode,
    check_positive_int,
    infer_rank,
)

#: Trace-label prefixes used to separate the ledger into phases.
SETUP_LABEL = "sketch-setup"
GATHER_LABEL = "sketch-gather"
OUTPUT_LABEL = "sketch-output"


@dataclass
class ParallelSampledMTTKRPResult:
    """Result of a simulated distributed sampled MTTKRP run.

    Attributes
    ----------
    output:
        The distributed estimate (reassemble with ``output.assemble()``);
        distributed exactly like Algorithm 3's output.
    machine:
        The simulated machine holding the per-rank communication ledger.
    samples:
        The :class:`SampleSet` used (bitwise identical to a sequential draw
        with the same seed).
    distribution:
        The :class:`StationaryDistribution` of tensor and factors.
    assignment:
        The :class:`SampleAssignment` mapping samples to owning ranks.
    grid_dims:
        Processor grid extents.
    """

    output: DistributedMTTKRPOutput
    machine: SimulatedMachine
    samples: SampleSet
    distribution: StationaryDistribution
    assignment: SampleAssignment
    grid_dims: Tuple[int, ...]

    @property
    def max_words_communicated(self) -> int:
        """Critical-path words (max over ranks of max(sent, received))."""
        return self.machine.max_words_communicated

    def assemble(self) -> np.ndarray:
        """Assemble the global output estimate."""
        return self.output.assemble()


def charge_sampling_setup(
    machine: SimulatedMachine,
    dist: StationaryDistribution,
    factors: Sequence[Optional[np.ndarray]],
    strategy: str,
) -> None:
    """Execute (and charge) the distribution-setup collectives for ``strategy``.

    ``"uniform"`` needs nothing.  ``"product-leverage"`` All-Reduces each
    input factor's ``R x R`` Gram matrix (every rank contributes the Gram of
    its owned row chunk) and All-Gathers the per-row leverage scores each
    rank computes locally against the reduced Gram — after which every rank
    holds the full per-factor distributions and can replicate the draw.
    ``"tree-leverage"`` charges the Gram All-Reduce *only*: the segment-tree
    sampler (:mod:`repro.sketch.treesample`) needs the reduced Grams to form
    its conditional weight matrices, and in the physically distributed
    algorithm (Bharadwaj et al., 2023) each rank then owns only its row
    block's subtree, with draws descending across ranks via small per-draw
    messages — so no per-row leverage-score All-Gather exists and the
    *setup* words are independent of every factor extent.  The simulation
    replicates that descent under the shared seed instead of routing it, so
    the per-draw cross-rank node messages of the real descent are **not
    charged** (a known idealization, recorded as a ROADMAP follow-up; the
    other strategies' replicated draws are realizable with zero extra
    communication after their charged setup, this one is not).
    ``"leverage"`` All-Gathers the full factor row chunks
    instead: the exact joint Khatri-Rao leverage distribution, drawn by
    materialization, needs every factor row, which is why it is the
    non-scalable strategy (its setup words grow like ``sum_k I_k R`` per
    rank regardless of the sample count).
    """
    if strategy == "uniform":
        return
    group = list(range(machine.n_procs))
    for k in range(len(dist.shape)):
        if k == dist.mode:
            continue
        factor = np.asarray(factors[k], dtype=np.float64)
        local_rows = {r: dist.factor_local_rows(k, r) for r in group}
        local_blocks = {r: factor[local_rows[r], :] for r in group}
        if strategy == "leverage":
            all_gather(
                machine,
                group,
                local_blocks,
                axis=0,
                label=f"{SETUP_LABEL} factor A^({k})",
            )
            continue
        if strategy not in ("product-leverage", "tree-leverage"):
            raise ParameterError(
                f"unknown sampling distribution {strategy!r} for setup charging"
            )
        grams = {r: block.T @ block for r, block in local_blocks.items()}
        reduced = all_reduce(
            machine, group, grams, label=f"{SETUP_LABEL} gram A^({k})"
        )
        if strategy == "tree-leverage":
            continue
        gram_pinv = np.linalg.pinv(reduced[group[0]])
        scores = {
            r: np.einsum("ir,rs,is->i", block, gram_pinv, block)
            for r, block in local_blocks.items()
        }
        all_gather(
            machine, group, scores, axis=0, label=f"{SETUP_LABEL} scores A^({k})"
        )


def parallel_sampled_mttkrp(
    tensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    grid_dims: Sequence[int],
    *,
    n_samples: Optional[int] = None,
    distribution: str = "product-leverage",
    seed: SeedLike = None,
    samples: Optional[SampleSet] = None,
    machine: Optional[SimulatedMachine] = None,
) -> ParallelSampledMTTKRPResult:
    """Run the distributed sampled MTTKRP on a simulated machine.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor (array-like / ``DenseTensor``), whose blocks
        the ranks read in place.
    factors:
        One factor matrix per mode; entry for ``mode`` ignored.
    mode:
        Output mode ``n``.
    grid_dims:
        The ``N``-way processor grid (see
        :func:`~repro.sketch.parallel.distribution.choose_sampled_grid`).
    n_samples:
        Number of draws, ``None`` or a positive int (default
        :func:`~repro.sketch.sampled_mttkrp.default_sample_count`).
    distribution:
        Sampling distribution (see :mod:`repro.sketch.sampling`).
    seed:
        Shared seed or generator for the replicated draw — the same value
        given to the sequential kernel reproduces its draws bit for bit.
    samples:
        Pre-drawn :class:`SampleSet` (overrides ``n_samples`` /
        ``distribution`` / ``seed``).
    machine:
        Optional pre-existing machine (must match the grid size).

    Returns
    -------
    ParallelSampledMTTKRPResult
    """
    if n_samples is not None:
        n_samples = check_positive_int(n_samples, "n_samples")
    data = as_ndarray(tensor)
    shape, ndim = data.shape, data.ndim
    mode = check_mode(mode, ndim)
    rank = infer_rank(factors, mode)
    check_factor_matrices(factors, shape, rank, skip_mode=mode)

    grid = ProcessorGrid(grid_dims)
    if len(grid.dims) != ndim:
        raise DistributionError(
            f"grid must have one dimension per tensor mode: got {len(grid.dims)} "
            f"grid dims for a {ndim}-way tensor"
        )
    if machine is None:
        machine = SimulatedMachine(grid.n_procs)
    elif machine.n_procs != grid.n_procs:
        raise DistributionError(
            f"machine has {machine.n_procs} processors but the grid needs {grid.n_procs}"
        )

    dist = StationaryDistribution(shape, rank, mode, grid)

    # -- Phase 1: rank-consistent draw (replicated), setup collectives charged.
    if samples is None:
        n_draws = default_sample_count(rank) if n_samples is None else n_samples
        samples = draw_krp_samples(
            factors, mode, n_draws, distribution=distribution, seed=seed
        )
    elif samples.mode != mode or samples.dims != tuple(
        shape[k] for k in range(ndim) if k != mode
    ):
        raise ParameterError(
            "provided SampleSet does not match the tensor shape and mode"
        )
    assignment = SampleAssignment(dist, samples)
    charge_sampling_setup(machine, dist, factors, samples.distribution)

    # -- Phase 2: All-Gather only the sampled factor rows within each hyperslice.
    gathered: Dict[int, List[Optional[Tuple[np.ndarray, np.ndarray]]]] = {
        r: [None] * ndim for r in range(grid.n_procs)
    }
    for k in range(ndim):
        if k == mode:
            continue
        factor = np.asarray(factors[k], dtype=np.float64)
        for pk in range(grid.dims[k]):
            group = grid.slice_group({k: pk})
            contributions = {
                r: factor[assignment.rank_gather_contribution(k, r), :] for r in group
            }
            result = all_gather(
                machine,
                group,
                contributions,
                axis=0,
                label=f"{GATHER_LABEL} A^({k}) rows p_{k}={pk}",
            )
            block_rows = assignment.sampled_rows_in_block(k, pk)
            for r in group:
                gathered[r][k] = (block_rows, result[r])

    # -- Phase 3: local sampled MTTKRP on each rank's owned samples; each
    #    rank reads its block in place.
    weights = samples.weights
    local_outputs: Dict[int, np.ndarray] = {}
    for r in range(grid.n_procs):
        ranges = dist.subtensor_ranges(r)
        mask = assignment.owned_mask(r)
        krp: Optional[np.ndarray] = None
        for t, k in enumerate(samples.modes):
            block_rows, matrix = gathered[r][k]
            positions = np.searchsorted(block_rows, samples.indices[mask, t])
            rows = matrix[positions, :]
            krp = rows.copy() if krp is None else krp * rows
        if krp is None:  # pragma: no cover - unreachable, ndim >= 2 enforced
            raise ParameterError("sampled MTTKRP requires at least two modes")
        weighted = krp * weights[mask][:, None]
        block = data[tuple(slice(start, stop) for start, stop in ranges)]
        fibers = _gather_fibers_dense(block, mode, samples, mask, ranges)
        partial = np.ascontiguousarray(estimator_gemm(fibers, weighted))
        local_outputs[r] = partial
        owned = int(np.count_nonzero(mask))
        machine.charge_flops(
            r,
            (len(samples.modes) - 1) * owned * rank  # Khatri-Rao rows
            + owned * rank  # estimator weighting
            + 2 * partial.shape[0] * owned * rank,  # sampled GEMM
        )
        storage = int(block.size) + int(weighted.size) + int(partial.size)
        for entry in gathered[r]:
            if entry is not None:
                storage += int(entry[1].size)
        machine.charge_storage(r, storage)

    # -- Phase 4: Reduce-Scatter within each output-mode hyperslice (Line 7
    #    of Algorithm 3).
    output = reduce_scatter_output(
        machine, dist, local_outputs, mode, lambda pn: f"{OUTPUT_LABEL} B p_{mode}={pn}"
    )

    return ParallelSampledMTTKRPResult(
        output=output,
        machine=machine,
        samples=samples,
        distribution=dist,
        assignment=assignment,
        grid_dims=tuple(grid.dims),
    )


class ParallelSampledKernel(SweepKernel):
    """Sweep kernel of ``parallel_cp_als(kernel="sampled")`` and ``"sampled-tree"``.

    Every call runs :func:`parallel_sampled_mttkrp` on ``grid_dims`` and the
    run's ``machine``, drawing afresh from one stream: the sequential
    registry's draws, resampled per MTTKRP.  The stream's position is the
    kernel's only cross-call state, and a checkpoint carries it.
    """

    exact = False

    def __init__(
        self,
        grid_dims: Sequence[int],
        *,
        machine: SimulatedMachine,
        n_samples: Optional[int] = None,
        distribution: str = "product-leverage",
        seed: SeedLike = None,
    ) -> None:
        self.grid_dims = tuple(grid_dims)
        self.machine = machine
        self.n_samples = n_samples
        self.distribution = distribution
        self.rng = _as_generator(seed)

    @property
    def state_kind(self) -> str:
        return f"{type(self).__name__}({self.distribution}) on grid {self.grid_dims}"

    def mttkrp(
        self, tensor, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> np.ndarray:
        return parallel_sampled_mttkrp(
            tensor,
            factors,
            mode,
            self.grid_dims,
            n_samples=self.n_samples,
            distribution=self.distribution,
            seed=self.rng,
            machine=self.machine,
        ).assemble()

    def capture_state(self) -> dict:
        return {"kind": self.state_kind, "rng": self.rng.bit_generator.state}

    def restore_state(self, state: Optional[dict]) -> None:
        if state is not None:
            self.check_state(state)
            self.rng.bit_generator.state = state["rng"]
