"""Distributed fused sampled-dimtree CP-ALS kernel on the simulated machine.

The distributed face of :mod:`repro.core.sampled_dimtree`: the exact
distributed dimtree kernel
(:class:`repro.parallel.dimtree.DistributedDimtreeKernel`) plus a Gram
All-Reduce per factor gather and a sampled local step.  The subclass inherits
everything else — the stationary distribution, per-rank trees, the gather
cache (one All-Gather per factor update), checkpoint and cache invalidation,
and the output Reduce-Scatter per mode hyperslice, unchanged from
Algorithm 3.  It adds two things:

* **the tree sampler's Gram All-Reduce only** — each gathered factor
  additionally All-Reduces its ``R x R`` block Gram (the reduced Gram is what
  the shared sampler cache derives its segment trees / leverage
  distributions from), and *nothing else*: there is no leverage-score or
  sampled-row gather, because every rank evaluates its draws against its own
  local partials.  The draw itself is replicated from the shared seed on
  every rank (rank-consistent seeding) rather than routed, so the per-draw
  cross-rank descent messages of a physically distributed sampler are not
  charged — the same documented idealization as the distributed sampled
  MTTKRP of :mod:`repro.sketch.parallel.sampled_mttkrp`;
* **the sampled local step** — one draw from the shared stream per call;
  each rank serves the leaf-parent partial from its tree cache and evaluates
  exactly the draws whose free-mode indices fall inside its block ranges,
  gathering their fibers with the sequential sampled kernel's gather.  The
  partial comes from ``DimensionTree.node_value``, not from
  ``DimensionTree.mttkrp``, so these trees drop no node before a read, as
  in the sequential fused kernel.

Under the same seed the shared :class:`~repro.core.sampled_dimtree.FusedSamplerCache`
walks the same rebuild schedule as the sequential kernel over the same
global factor arrays (each entry is rebuilt when the call passes another
array for its factor), so the draws are **bitwise identical to
sequential**, and so is the :class:`~repro.core.sampled_dimtree.FusedDrawRecord`
log.
:func:`predicted_sampled_dimtree_ledger` is the dimtree replay plus one Gram
All-Reduce per gather event, so the machine ledger matches it word for word
(the tests assert ``==``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.sampled_dimtree import (
    FusedDrawRecord,
    FusedSamplerCache,
    estimator_cost,
    fused_estimator_gemm,
)
from repro.parallel.collectives import all_reduce, bucket_all_reduce_cost
from repro.parallel.dimtree import DistributedDimtreeKernel, replay_dimtree_ledger
from repro.parallel.machine import SimulatedMachine
from repro.sketch.sampled_mttkrp import (
    _gather_fibers_dense,
    default_sample_count,
    estimator_gemm,
)
from repro.sketch.sampling import SeedLike, _as_generator
from repro.utils.validation import check_positive_int

#: Trace-label prefixes (the reconciliation tests split the ledger on these).
GATHER_LABEL = "sampled-dimtree all_gather"
GRAM_LABEL = "sampled-dimtree gram all_reduce"
REDUCE_LABEL = "sampled-dimtree reduce_scatter"


class DistributedSampledDimtreeKernel(DistributedDimtreeKernel):
    """Sweep-aware distributed fused sampled MTTKRP (``"sampled-dimtree"``).

    Registered in :data:`repro.cp.parallel_als.PARALLEL_KERNEL_NAMES`
    (stationary distribution only, like the exact dimtree kernel).

    Parameters
    ----------
    grid_dims:
        The ``N``-way processor grid.
    machine:
        Optional pre-existing :class:`SimulatedMachine`.
    n_samples:
        Draws per MTTKRP invocation (default
        :func:`~repro.sketch.sampled_mttkrp.default_sample_count`).
    distribution:
        Free-mode sampling distribution
        (:data:`repro.core.sampled_dimtree.FUSED_DISTRIBUTIONS`).
    seed:
        Shared seed/generator of the replicated draw; the same seed given to
        the sequential :class:`~repro.core.sampled_dimtree.SampledDimtreeKernel`
        reproduces its draws bit for bit.

    One rule governs re-gathers, Gram All-Reduces, sampler rebuilds and the
    per-rank trees at once: each cache is stale exactly when the call passes
    another array for a factor it was built from.
    """

    exact = False
    gather_label = GATHER_LABEL
    reduce_label = REDUCE_LABEL

    def __init__(
        self,
        grid_dims: Sequence[int],
        *,
        machine: Optional[SimulatedMachine] = None,
        n_samples: Optional[int] = None,
        distribution: str = "tree-leverage",
        seed: SeedLike = None,
    ) -> None:
        super().__init__(grid_dims, machine=machine)
        if n_samples is not None:
            n_samples = check_positive_int(n_samples, "n_samples")
        self._n_samples = n_samples
        self._distribution = distribution
        self._rng = _as_generator(seed)
        self.samplers = FusedSamplerCache(distribution)
        self.draw_log: List[FusedDrawRecord] = []

    # -- checkpoint/restore: the RNG, sampler cache and draw log on top -------
    def capture_state(self) -> Optional[dict]:
        """RNG position + sampler cache + draw log + the base snapshot.

        ``None`` before the first MTTKRP, as the base kernel's: a driver
        saves a checkpoint only after a completed sweep.
        """
        state = super().capture_state()
        if state is not None:
            state.update(
                rng=self._rng.bit_generator.state,
                samplers=self.samplers,
                draw_log=self.draw_log,
            )
        return state

    def _apply_pending(self) -> None:
        state = self._pending_state
        self._rng.bit_generator.state = state["rng"]
        self.samplers = state["samplers"]
        self.draw_log = state["draw_log"]
        super()._apply_pending()

    def invalidate_caches(self) -> bool:
        sampled = self.samplers.invalidate_all()
        return super().invalidate_caches() or sampled

    def setup(self, data: np.ndarray, rank: int, mode: int = 0) -> bool:
        if not super().setup(data, rank, mode):
            return False
        # A new problem starts with an empty sampler cache and draw log, as
        # the sequential kernel's tree rebuild does.
        self.samplers = FusedSamplerCache(self._distribution)
        self.draw_log = []
        return True

    # -- the two additions ----------------------------------------------------
    def _gather_factor(self, k: int, factor: np.ndarray) -> Dict[int, np.ndarray]:
        """All-Gather factor ``k``'s block rows, then All-Reduce its Gram."""
        gathered = super()._gather_factor(k, factor)
        # The sampler-setup collective: every rank contributes its owned row
        # chunk's R x R Gram (each factor row is owned by exactly one rank,
        # so the sum is the full factor Gram the shared sampler cache needs).
        group = list(range(self.grid.n_procs))
        grams = {}
        for r in group:
            block = factor[self.dist.factor_local_rows(k, r), :]
            grams[r] = block.T @ block
        all_reduce(self.machine, group, grams, label=f"{GRAM_LABEL} A^({k})")
        return gathered

    def _local_outputs(
        self, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> Dict[int, np.ndarray]:
        """One replicated draw, evaluated on every rank's leaf-parent partial."""
        rank = self.dist.rank
        n_draws = default_sample_count(rank) if self._n_samples is None else self._n_samples
        parent = self._trees[0].leaf_parent(mode)
        free = tuple(k for k in parent if k != mode)
        # The draw comes from the shared stream (bitwise == sequential).
        samples = self.samplers.draw(factors, free, mode, n_draws, self._rng)
        weighted = samples.krp_rows(factors) * samples.weights[:, None]
        self.draw_log.append(
            FusedDrawRecord(
                mode=mode, free_modes=free, n_draws=n_draws, n_distinct=samples.n_distinct
            )
        )

        outputs: Dict[int, np.ndarray] = {}
        for r, tree in self._trees.items():
            local_factors = self._local_factors(r, mode)
            flops_before = tree.flops
            tree.register_factors(local_factors, mode)
            data_p, modes_p, has_rank = tree.node_value(parent)

            ranges = self.dist.subtensor_ranges(r)
            mask = samples.in_block(ranges)
            fibers = _gather_fibers_dense(data_p, modes_p.index(mode), samples, mask, ranges)
            gemm = fused_estimator_gemm if has_rank else estimator_gemm
            outputs[r] = np.ascontiguousarray(gemm(fibers, weighted[mask]))
            eval_flops, _ = estimator_cost(
                outputs[r].shape[0],
                rank,
                len(free),
                int(np.count_nonzero(mask)),
                has_rank=has_rank,
            )
            self._charge_local(
                r,
                tree.flops - flops_before + eval_flops,
                self.tensor_blocks[r].data,
                local_factors,
                outputs[r],
                tree.cached_words(),
            )
        return outputs


def predicted_sampled_dimtree_ledger(
    shape: Sequence[int],
    rank: int,
    grid_dims: Sequence[int],
    n_sweeps: int,
) -> np.ndarray:
    """Per-rank words sent (= received) the fused kernel charges over a run.

    The dimtree replay (:func:`repro.parallel.dimtree.replay_dimtree_ledger`:
    the per-update factor All-Gathers and the per-mode output
    Reduce-Scatters) plus one global ``R x R`` Gram All-Reduce per gather
    event (the sampler setup — the *only* sampling-induced communication).
    Draw counts never appear: fibers and partials are local, factor rows are
    gathered per update rather than per sample, so the ledger is
    draw-independent and the returned array equals the machine's
    ``words_sent`` (and ``words_received``) exactly.
    """
    words, gathers = replay_dimtree_ledger(shape, rank, grid_dims, n_sweeps)
    return words + gathers * bucket_all_reduce_cost(len(words), int(rank) ** 2)
