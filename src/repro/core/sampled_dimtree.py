"""Fused sampled dimension tree: leverage draws served from cached partials.

The two biggest measured speedups in this repository attack the same cost
from opposite ends: the dimension-tree engine of :mod:`repro.core.dimtree`
amortizes *exact* MTTKRPs by caching partial contractions across the ALS
sweep (two full-tensor contractions per sweep instead of ``N``), while the
sampled kernels of :mod:`repro.sketch` replace the full contraction by a
sublinear-in-``J`` importance-sampling estimate — but gather their fibers
from the *raw tensor* on every draw of every call.  This module fuses them:

* **sampling the cached partials.**  For output mode ``n`` the kernel asks
  the shared :class:`~repro.core.dimtree.DimensionTree` for the partial at
  the *parent* of leaf ``(n,)`` — the tensor with every mode outside the
  parent's mode set already contracted (and cached, and re-used across the
  sweep).  Only the parent's remaining "free" modes ``F = parent \\ {n}``
  are then estimated by importance sampling:

      ``B_hat[i, r] = sum_m w_m * P[i, j_m, r] * prod_{k in F} A_k[j_m^k, r]``

  with ``j_m`` drawn over the rows of the free-mode Khatri-Rao product and
  ``w_m = count_m / (D p_m)`` the usual unbiased weights.  Marginalizing the
  already-contracted modes exactly is a Rao-Blackwellization of the plain
  sampled estimator: the expectation equals the dimension tree's exact
  MTTKRP, the variance is carried by fewer sampled modes, and the raw tensor
  is touched only by the (cached) root contractions — not per draw.

* **serving the draws from cached partial Grams.**  The exact free-mode
  leverage draws use the segment trees of partial Gram matrices from
  :mod:`repro.sketch.treesample`; :class:`FusedSamplerCache` rebuilds a
  factor's tree only when that factor's :class:`~repro.core.dimtree.FactorGate`
  version changes, so the sampler and the dimension tree ride *one* shared
  invalidation authority.

With ``cache=False`` the kernel degenerates to the plain per-call sampled
kernel (:func:`repro.sketch.sampled_mttkrp.sampled_mttkrp` on the raw
tensor, one call per MTTKRP from one generator): it is what ``cp_als``
builds for the ``"sampled"`` and ``"sampled-tree"`` registry names, and it
doubles as the counted baseline the fused frontier compares against.

The kernel extends the code it builds on rather than copying it:
:class:`SampledDimtreeKernel` subclasses
:class:`~repro.core.dimtree.DimensionTreeKernel` and keeps its tree
lifecycle, :class:`FusedSamplerCache` hands its cached per-factor state to
the one draw path of :mod:`repro.sketch.sampling`, and the fibers come from
the sequential sampled kernel's gather.

Everything is counted as it executes (tree contractions via the
``DimensionTree`` ledger; sampler builds, descents, and estimator work via
the conventions documented on :class:`FusedSweepCost`), and
:func:`repro.costmodel.fused_model.sampled_dimtree_sweep_cost` replays the
same schedule symbolically so modelled == counted exactly, continuing the
measured-vs-modelled discipline of PRs 2-4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dimtree import DimensionTreeKernel
from repro.exceptions import ParameterError
from repro.observe.instrument import add_cost, annotate, inc as observe_inc
from repro.tensor.dense import as_ndarray
from repro.utils.validation import check_positive_int, infer_rank

#: Distributions the fused sampler cache can serve (a subset of
#: :data:`repro.sketch.sampling.DISTRIBUTIONS`: the joint-materializing
#: ``"leverage"`` strategy has no cacheable per-factor state and is exactly
#: what the tree sampler replaces).
FUSED_DISTRIBUTIONS = ("uniform", "product-leverage", "tree-leverage")


@dataclass(frozen=True)
class FusedSweepCost:
    """Counted cost of fused sampled-dimtree work (one sweep or a running total).

    Counting conventions (shared word for word with the symbolic replay in
    :mod:`repro.costmodel.fused_model`):

    * **tree maintenance** (``contractions`` / ``tree_flops`` / ``tree_words``
      / ``root_reads``) — the :class:`~repro.core.dimtree.DimensionTree`
      ledger of keeping the leaf-parent partials valid: ``2 T R`` flops and
      ``(partial-in + factor + partial-out)`` words per single-mode
      contraction, exactly as in the exact engine;
    * **sampler builds** (``build_flops`` / ``build_words``) — per rebuilt
      factor of extent ``I``: ``2 I R^2`` flops, and ``I R`` factor words
      plus (tree-leverage only) ``2 I R^2`` written node Grams;
    * **draws** (``draw_flops`` / ``draw_words``, tree-leverage only) — per
      draw per free mode: one ``2 R^2 + R`` node-mass evaluation per descent
      level plus the root and an ``R``-word conditioning update
      (:func:`tree_draw_cost`), reading one ``R^2``-word node Gram per
      level;
    * **estimator** (``eval_flops`` / ``eval_words``) — for ``U`` distinct
      rows: ``(|F| - 1) U R`` Khatri-Rao Hadamards, ``U R`` weighting, and
      the ``2 I_n U R`` rank-linked GEMM; words are the gathered partial
      fibers (``U I_n R``, or ``U I_n`` when the parent is the root and no
      rank axis exists), ``U |F| R`` factor rows, and the ``I_n R`` output.
    """

    contractions: int = 0
    tree_flops: int = 0
    tree_words: int = 0
    root_reads: int = 0
    build_flops: int = 0
    build_words: int = 0
    draw_flops: int = 0
    draw_words: int = 0
    eval_flops: int = 0
    eval_words: int = 0
    n_draws: int = 0
    distinct_rows: int = 0

    @property
    def flops(self) -> int:
        """Total counted arithmetic (tree + builds + draws + estimator)."""
        return self.tree_flops + self.build_flops + self.draw_flops + self.eval_flops

    @property
    def words(self) -> int:
        """Total counted data movement (tree + builds + draws + estimator)."""
        return self.tree_words + self.build_words + self.draw_words + self.eval_words

    def __sub__(self, other: "FusedSweepCost") -> "FusedSweepCost":
        return FusedSweepCost(
            **{
                name: getattr(self, name) - getattr(other, name)
                for name in self.__dataclass_fields__
            }
        )

    def to_dict(self) -> dict:
        """Plain-dict form including the flop/word totals (for JSON frontiers)."""
        out = {name: getattr(self, name) for name in self.__dataclass_fields__}
        out["flops"] = self.flops
        out["words"] = self.words
        return out


@dataclass(frozen=True)
class FusedDrawRecord:
    """One kernel invocation's draw, as the symbolic replay needs it.

    Attributes
    ----------
    mode:
        The output mode served.
    free_modes:
        The sampled (free) modes — the parent node's other modes.
    n_draws:
        Draws taken (with replacement).
    n_distinct:
        Distinct sampled free-KRP rows (the only data-dependent size).
    """

    mode: int
    free_modes: Tuple[int, ...]
    n_draws: int
    n_distinct: int


def fused_estimator_gemm(fibers: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """The rank-linked estimator contraction ``sum_u fibers[i,u,r] weighted[u,r]``.

    Like :func:`repro.sketch.sampled_mttkrp.estimator_gemm` this is evaluated
    with a fixed einsum reduction so each output row depends only on its own
    partial fiber — the distributed kernel's per-rank evaluation on an
    output-mode-only grid is then bitwise identical to the sequential one.
    """
    return np.einsum("iur,ur->ir", fibers, weighted)


def sampler_build_cost(extent: int, rank: int, distribution: str) -> Tuple[int, int]:
    """(flops, words) of rebuilding one factor's cached sampling state.

    ``2 I R^2`` flops for either the segment tree (leaf outer products plus
    the up-sweep) or the leverage-score pass (Gram plus quadratic form); the
    words are the streamed factor (``I R``) plus, for the tree, its
    ``~2 I R^2`` written node Grams.  Uniform sampling keeps no state.
    """
    if distribution == "uniform":
        return 0, 0
    flops = 2 * int(extent) * rank * rank
    words = int(extent) * rank
    if distribution == "tree-leverage":
        words += 2 * int(extent) * rank * rank
    return flops, words


def estimator_cost(
    out_extent: int, rank: int, n_free: int, distinct: int, *, has_rank: bool
) -> Tuple[int, int]:
    """(flops, words) of the estimator on ``distinct`` sampled rows.

    The **estimator** convention of :class:`FusedSweepCost`, written once:
    the sequential kernel counts it, the distributed kernel charges its flops
    per rank, and :mod:`repro.costmodel.fused_model` replays it.
    """
    flops = (
        max(n_free - 1, 0) * distinct * rank
        + distinct * rank
        + 2 * out_extent * distinct * rank
    )
    words = (
        distinct * out_extent * (rank if has_rank else 1)
        + distinct * n_free * rank
        + out_extent * rank
    )
    return flops, words


def tree_draw_cost(
    extents: Sequence[int], rank: int, n_draws: int
) -> Tuple[int, int]:
    """(flops, words) of ``n_draws`` segment-tree descents over ``extents``.

    Each draw of :meth:`repro.sketch.treesample.KRPTreeSampler.draw_indices`
    does ``(levels + 1)`` node-mass evaluations of ``2 R^2 + R`` flops plus an
    ``R``-flop conditioning update per mode, reading one ``R^2``-word node
    Gram per descent level.  The fused kernel and its replay both charge
    draws through this one formula.
    """
    from repro.sketch.treesample import tree_descent_levels

    per_node = 2 * rank * rank + rank
    flops_per_draw = 0
    words_per_draw = 0
    for extent in extents:
        levels = tree_descent_levels(int(extent))
        flops_per_draw += (levels + 1) * per_node + rank
        words_per_draw += levels * rank * rank
    return int(n_draws) * flops_per_draw, int(n_draws) * words_per_draw


class FusedSamplerCache:
    """Per-factor sampling state cached across mode updates and sweeps.

    The second consumer of the shared :class:`~repro.core.dimtree.FactorGate`
    versions: for each factor the cache holds a version-stamped snapshot and
    its derived sampling state — a
    :class:`~repro.sketch.treesample.GramSegmentTree` (``"tree-leverage"``)
    or a normalized per-row leverage distribution (``"product-leverage"``) —
    rebuilt only when the gate bumped that factor's version.  Draws and
    importance probabilities are both produced from the same *snapshot*, so
    the importance weights are exactly those of the distribution the
    indices were drawn from.
    """

    def __init__(self, distribution: str = "tree-leverage") -> None:
        if distribution not in FUSED_DISTRIBUTIONS:
            raise ParameterError(
                f"unknown fused sampling distribution {distribution!r}; "
                f"use one of {FUSED_DISTRIBUTIONS}"
            )
        self.distribution = distribution
        #: mode -> (gate version, factor snapshot, derived sampling state)
        self._cache: Dict[int, Tuple[int, np.ndarray, object]] = {}
        self.build_flops = 0
        self.build_words = 0
        self.draw_flops = 0
        self.draw_words = 0

    def invalidate_all(self) -> bool:
        """Drop every cached snapshot/sampler; return whether any were held."""
        had_entries = bool(self._cache)
        self._cache.clear()
        return had_entries

    def _refresh(self, k: int, factor: np.ndarray, version: int) -> None:
        entry = self._cache.get(k)
        if entry is not None and entry[0] == version:
            observe_inc("sampler_cache.hit")
            return
        snapshot = np.asarray(factor, dtype=np.float64)
        rank = int(snapshot.shape[1])
        state: object = None
        if self.distribution == "tree-leverage":
            from repro.sketch.treesample import GramSegmentTree

            state = GramSegmentTree(snapshot)
        elif self.distribution == "product-leverage":
            from repro.sketch.sampling import factor_leverage_distribution

            state = factor_leverage_distribution(snapshot)
        flops, words = sampler_build_cost(snapshot.shape[0], rank, self.distribution)
        self.build_flops += flops
        self.build_words += words
        observe_inc("sampler_cache.rebuild")
        add_cost(flops=flops, words=words)
        self._cache[k] = (version, snapshot, state)

    def draw(
        self,
        factors: Sequence[Optional[np.ndarray]],
        free_modes: Sequence[int],
        mode: int,
        n_draws: int,
        rng: np.random.Generator,
        versions: Sequence[int],
    ):
        """Draw ``n_draws`` free-KRP rows; return a deduplicated ``SampleSet``.

        ``versions`` carries the gate version of each free factor, in
        ``free_modes`` order; a mismatch with the cached stamp triggers a
        rebuild from the *current* factor (counted).  Probabilities come from
        the same cached snapshot the indices were drawn from.
        """
        from repro.sketch.sampling import _draw_sample_set

        free_modes = tuple(int(k) for k in free_modes)
        if not free_modes:
            raise ParameterError("fused sampling requires at least one free mode")
        n_draws = check_positive_int(n_draws, "n_draws")
        for k, version in zip(free_modes, versions):
            self._refresh(k, factors[k], version)
        snapshots = [self._cache[k][1] for k in free_modes]
        dims = tuple(int(s.shape[0]) for s in snapshots)
        # The cached per-factor states: leverage distributions or segment trees.
        state = [self._cache[k][2] for k in free_modes]
        if self.distribution == "tree-leverage":
            from repro.sketch.treesample import KRPTreeSampler

            state = KRPTreeSampler(snapshots + [None], len(free_modes), trees=state)
            flops, words = tree_draw_cost(dims, state.rank, n_draws)
            self.draw_flops += flops
            self.draw_words += words
            add_cost(flops=flops, words=words)
        return _draw_sample_set(self.distribution, state, mode, free_modes, dims, n_draws, rng)


class SampledDimtreeKernel(DimensionTreeKernel):
    """Sweep-aware fused sampled MTTKRP kernel (registry name ``"sampled-dimtree"``).

    A :class:`~repro.core.dimtree.DimensionTreeKernel` whose step samples the
    leaf-parent partial instead of contracting it.  It reads that partial
    through :meth:`~repro.core.dimtree.DimensionTree.node_value`, never
    through :meth:`~repro.core.dimtree.DimensionTree.mttkrp`, so the tree
    drops no node before a read.  The exact kernel's tree lifecycle is
    inherited: the (re)build on a new tensor, the re-opened
    sweep mark, the lazy checkpoint restore, :meth:`factor_updated` and
    :meth:`per_sweep_costs`.  This class adds the RNG, the sampler cache,
    the draw log and the sampling counters; a checkpoint holds the RNG's
    position and the :class:`FusedSamplerCache` object itself.  All three
    sampled names of ``cp_als`` build this class: ``"sampled-dimtree"``
    with the defaults, ``"sampled"`` and ``"sampled-tree"`` with
    ``cache=False`` and the ``"product-leverage"`` and ``"tree-leverage"``
    distributions.

    Parameters
    ----------
    n_samples:
        Draws per MTTKRP invocation (default
        :func:`repro.sketch.sampled_mttkrp.default_sample_count`).
    distribution:
        Free-mode sampling distribution (:data:`FUSED_DISTRIBUTIONS`;
        default ``"tree-leverage"`` — exact leverage over the free Khatri-Rao
        product, served from the cached segment trees).
    seed:
        Seed or generator for all draws; a fixed seed makes the whole run
        (draws included) reproducible, and the distributed kernel under the
        same seed takes bitwise-identical draws.
    cache:
        ``False`` degenerates to the plain per-call sampled kernel on the raw
        tensor: :func:`~repro.sketch.sampled_mttkrp.sampled_mttkrp` on every
        call, drawing from ``seed``'s stream, which is the registry kernels
        ``"sampled"`` (``distribution="product-leverage"``) and
        ``"sampled-tree"`` (``"tree-leverage"``) and the counted baseline of
        the fused frontier.  It keeps no sampler cache, so it counts no
        ``sampler_cache`` events.
    """

    exact = False

    def __init__(
        self,
        n_samples: Optional[int] = None,
        *,
        distribution: str = "tree-leverage",
        seed=None,
        cache: bool = True,
    ) -> None:
        from repro.sketch.sampling import _as_generator

        if distribution not in FUSED_DISTRIBUTIONS:
            raise ParameterError(
                f"unknown fused sampling distribution {distribution!r}; "
                f"use one of {FUSED_DISTRIBUTIONS}"
            )
        if n_samples is not None:
            n_samples = check_positive_int(n_samples, "n_samples")
        rng = _as_generator(seed)
        super().__init__(cache=cache)
        self._n_samples = n_samples
        self._distribution = distribution
        self._rng = rng
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        self.samplers = FusedSamplerCache(self._distribution)
        self.draw_log: List[FusedDrawRecord] = []
        self.eval_flops = 0
        self.eval_words = 0
        self.total_draws = 0
        self.total_distinct = 0

    # -- checkpoint/restore: the RNG, sampler cache and draw log on top -------
    @property
    def state_kind(self) -> str:
        """The class with its distribution and cache flag, which tell the
        three sampled registry names apart."""
        return f"{type(self).__name__}({self._distribution}, cache={self._cache})"

    def capture_state(self) -> dict:
        """RNG bit-stream position + tree and sampler caches + counters."""
        state = super().capture_state() or {"kind": self.state_kind, "tree": None}
        state.update(
            rng=self._rng.bit_generator.state,
            samplers=self.samplers,
            draw_log=self.draw_log,
            eval=(self.eval_flops, self.eval_words, self.total_draws, self.total_distinct),
        )
        return state

    def _restore_sampling(self, state: dict) -> None:
        self.samplers = state["samplers"]
        self.draw_log = state["draw_log"]
        self.eval_flops, self.eval_words, self.total_draws, self.total_distinct = state["eval"]

    def restore_state(self, state: Optional[dict]) -> None:
        """Adopt a snapshot now (RNG) and lazily (tree caches, next mttkrp).

        The RNG position applies immediately — the ``cache=False`` degenerate
        path consumes it without ever building a tree.  When the snapshot
        holds a tree, it and the sampling state are adopted inside the next
        :meth:`mttkrp`, after the rebuild that would otherwise reset them.
        """
        super().restore_state(state)
        if state is None:
            return
        self._rng.bit_generator.state = state["rng"]
        if state["tree"] is None:
            self._pending_state = None
            self._restore_sampling(state)

    def _apply_pending(self) -> None:
        super()._apply_pending()
        self._restore_sampling(self._pending_state)

    def invalidate_caches(self) -> bool:
        sampled = self.samplers.invalidate_all()
        invalidated = super().invalidate_caches() or sampled
        if invalidated:
            observe_inc("recovery.sampler_invalidate")
        return invalidated

    # -- counters ------------------------------------------------------------
    def counters(self) -> FusedSweepCost:
        """Running totals of every counted cost component."""
        tree = super().counters()
        return FusedSweepCost(
            contractions=tree.contractions,
            tree_flops=tree.flops,
            tree_words=tree.words,
            root_reads=tree.root_reads,
            build_flops=self.samplers.build_flops,
            build_words=self.samplers.build_words,
            draw_flops=self.samplers.draw_flops,
            draw_words=self.samplers.draw_words,
            eval_flops=self.eval_flops,
            eval_words=self.eval_words,
            n_draws=self.total_draws,
            distinct_rows=self.total_distinct,
        )

    # -- the kernel ----------------------------------------------------------
    def _default_draws(self, rank: int) -> int:
        from repro.sketch.sampled_mttkrp import default_sample_count

        return (
            default_sample_count(rank) if self._n_samples is None else self._n_samples
        )

    def _record(
        self,
        mode: int,
        free: Tuple[int, ...],
        n_draws: int,
        distinct: int,
        rank: int,
        out_extent: int,
        *,
        has_rank: bool,
    ) -> None:
        """Count one call's estimator and log its draw."""
        flops, words = estimator_cost(out_extent, rank, len(free), distinct, has_rank=has_rank)
        self.eval_flops += flops
        self.eval_words += words
        add_cost(flops=flops, words=words)
        self.draw_log.append(
            FusedDrawRecord(mode=mode, free_modes=free, n_draws=n_draws, n_distinct=distinct)
        )
        self.total_draws += n_draws
        self.total_distinct += distinct
        annotate(mode=mode, n_draws=n_draws, distinct_rows=distinct)

    def _degenerate_mttkrp(self, data, factors, mode: int) -> np.ndarray:
        """The ``cache=False`` path: the plain per-call sampled kernel, counted."""
        from repro.sketch.sampled_mttkrp import sampled_mttkrp

        rank = infer_rank(factors, mode)
        n_draws = self._default_draws(rank)
        report = sampled_mttkrp(
            data,
            factors,
            mode,
            n_samples=n_draws,
            distribution=self._distribution,
            seed=self._rng,
            return_report=True,
        )
        free = tuple(k for k in range(data.ndim) if k != mode)
        # The per-call kernel builds every factor's sampling state afresh
        # and gathers raw (rank-free) fibers; count it under the shared
        # conventions so the degenerate kernel is the fused frontier's
        # baseline column.
        for k in free:
            flops, words = sampler_build_cost(
                data.shape[k], rank, self._distribution
            )
            self.samplers.build_flops += flops
            self.samplers.build_words += words
            add_cost(flops=flops, words=words)
        if self._distribution == "tree-leverage":
            flops, words = tree_draw_cost(
                [data.shape[k] for k in free], rank, n_draws
            )
            self.samplers.draw_flops += flops
            self.samplers.draw_words += words
            add_cost(flops=flops, words=words)
        self._record(
            mode, free, n_draws, report.distinct_rows, rank, data.shape[mode], has_rank=False
        )
        return report.result

    def mttkrp(
        self, tensor, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> np.ndarray:
        from repro.sketch.sampled_mttkrp import _gather_fibers_dense, estimator_gemm

        data = as_ndarray(tensor)
        if not self._cache:
            return self._degenerate_mttkrp(data, factors, mode)
        self._bind(data)
        rank = self.tree.register_factors(factors, mode)
        n_draws = self._default_draws(rank)

        parent = self.tree.leaf_parent(mode)
        free = tuple(k for k in parent if k != mode)
        if not free:  # pragma: no cover - parents always hold >= 2 modes
            raise ParameterError("leaf parent holds no free modes")
        data_p, modes_p, has_rank = self.tree.node_value(parent)

        samples = self.samplers.draw(
            factors,
            free,
            mode,
            n_draws,
            self._rng,
            [self.tree.factor_version(k) for k in free],
        )
        weighted = samples.krp_rows(factors) * samples.weights[:, None]
        fibers = _gather_fibers_dense(data_p, modes_p.index(mode), samples)
        gemm = fused_estimator_gemm if has_rank else estimator_gemm
        result = gemm(fibers, weighted)
        self._record(
            mode, free, n_draws, samples.n_distinct, rank, data.shape[mode], has_rank=has_rank
        )
        return np.ascontiguousarray(result)
