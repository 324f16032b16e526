"""Cost model of the fused sampled dimension tree (replay + three-way crossover).

The fused kernel of :mod:`repro.core.sampled_dimtree` counts every cost
component as it executes; this module replays the same schedule
*symbolically* — the tree's lazy parent-node maintenance under the ALS update
order, the sampler cache's per-factor rebuild schedule, and the per-call
draw/estimator terms — so the modelled steady-state sweep equals the
kernel's counted ledger exactly (the tests assert ``==``, continuing the
discipline of :mod:`repro.costmodel.dimtree_model`).

The only data-dependent sizes are the per-call *distinct* draw counts, which
the caller passes in (taken from the kernel's
:class:`~repro.core.sampled_dimtree.FusedDrawRecord` log for reconciliation,
or capped at the draw count for a priori modelling).  Everything else —
which partials are recomputed, which sampler trees rebuild, how many node
Grams each descent reads — is determined by ``(shape, rank, n_draws)``
alone.

:func:`three_way_crossover` puts the three sweep engines side by side —
exact ``"dimtree"``, per-call ``"sampled-tree"``, and the fused
``"sampled-dimtree"`` — as a function of draw count and rank.  The fused
kernel occupies a *window*: against the per-call sampled baseline it
amortizes the sampler builds and replaces raw-fiber gathers with cached
partials (a fixed root-contraction cost that pays off as draws grow), while
against the exact tree its sampled leaf evaluation wins only while the
distinct draw count stays below the free-mode extent it replaces.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.dimtree import SweepCost, _build_parents, _recompute_cost, dimtree_sweep_cost
from repro.core.sampled_dimtree import (
    FusedSweepCost,
    estimator_cost,
    sampler_build_cost,
    tree_draw_cost,
)
from repro.exceptions import ParameterError
from repro.utils.validation import check_positive_int, check_rank, check_shape

__all__ = [
    "sampled_dimtree_sweep_cost",
    "sampled_tree_sweep_cost",
    "expected_distinct_rows",
    "three_way_crossover",
]

#: Sweeps the sampler-rebuild replay runs before reading off the steady
#: state (the rebuild schedule is periodic from the second sweep on; two
#: more sweeps are replayed as margin).
_STEADY_SWEEPS = 4


def _check_distinct(distinct_rows: Sequence[int], n_modes: int) -> List[int]:
    distinct = [int(u) for u in distinct_rows]
    if len(distinct) != n_modes:
        raise ParameterError(
            f"distinct_rows must give one count per mode ({n_modes}), "
            f"got {len(distinct)}"
        )
    if any(u < 0 for u in distinct):
        raise ParameterError("distinct_rows must be non-negative")
    return distinct


def sampled_dimtree_sweep_cost(
    shape: Sequence[int],
    rank: int,
    n_draws: int,
    distinct_rows: Sequence[int],
    *,
    distribution: str = "tree-leverage",
    first_sweep: bool = False,
) -> FusedSweepCost:
    """Counted cost of one ALS sweep of the fused kernel, replayed symbolically.

    Replays the exact schedule of
    :class:`~repro.core.sampled_dimtree.SampledDimtreeKernel` under the ALS
    update order (mode ``0..N-1``, each factor replaced and exact-invalidated
    after its solve).  The kernel reads only the leaf parents, so every
    sweep recomputes each internal non-root node once, the first sweep
    included.  The per-factor sampler rebuilds are replayed sweep by sweep,
    and the per-call draw and estimator terms added.  ``distinct_rows[m]``
    is the distinct draw count of mode ``m``'s call in the costed sweep
    (from the kernel's draw log, or a model cap); all other terms are
    schedule-determined, so the result equals the kernel's counted
    steady-state (or ``first_sweep``) per-sweep ledger exactly.
    """
    shape = check_shape(shape, min_ndim=2)
    rank = check_rank(rank)
    n_draws = check_positive_int(n_draws, "n_draws")
    n_modes = len(shape)
    distinct = _check_distinct(distinct_rows, n_modes)
    parents = _build_parents(n_modes)
    root_key = tuple(range(n_modes))

    tree = sum(
        (
            _recompute_cost(shape, parent, key, rank)
            for key, parent in parents.items()
            if len(key) > 1
        ),
        SweepCost(),
    )

    # The sampler cache stays warm across sweeps: keep the last replayed
    # sweep's rebuilds.
    n_sweeps = 1 if first_sweep else _STEADY_SWEEPS
    versions = [0] * n_modes
    built_at: Dict[int, int] = {}
    for _ in range(n_sweeps):
        build_flops = build_words = 0
        for mode in range(n_modes):
            for k in parents[(mode,)]:
                if k != mode and built_at.get(k) != versions[k]:
                    flops, words = sampler_build_cost(shape[k], rank, distribution)
                    build_flops += flops
                    build_words += words
                    built_at[k] = versions[k]
            versions[mode] += 1

    draw_flops = 0
    draw_words = 0
    eval_flops = 0
    eval_words = 0
    for mode in range(n_modes):
        parent_key = parents[(mode,)]
        free = tuple(k for k in parent_key if k != mode)
        has_rank = parent_key != root_key
        if distribution == "tree-leverage":
            flops, words = tree_draw_cost([shape[k] for k in free], rank, n_draws)
            draw_flops += flops
            draw_words += words
        flops, words = estimator_cost(
            int(shape[mode]), rank, len(free), distinct[mode], has_rank=has_rank
        )
        eval_flops += flops
        eval_words += words

    return FusedSweepCost(
        contractions=tree.contractions,
        tree_flops=tree.flops,
        tree_words=tree.words,
        root_reads=tree.root_reads,
        build_flops=build_flops,
        build_words=build_words,
        draw_flops=draw_flops,
        draw_words=draw_words,
        eval_flops=eval_flops,
        eval_words=eval_words,
        n_draws=n_modes * n_draws,
        distinct_rows=sum(distinct),
    )


def sampled_tree_sweep_cost(
    shape: Sequence[int],
    rank: int,
    n_draws: int,
    distinct_rows: Sequence[int],
) -> FusedSweepCost:
    """Counted cost of one ALS sweep of the *per-call* tree-leverage kernel.

    The baseline column of the fused frontier: every mode rebuilds all
    ``N - 1`` factors' segment trees, draws over all ``N - 1`` modes, and
    gathers raw (rank-free) tensor fibers — exactly the ``cache=False``
    degenerate mode of the fused kernel (the counted shape of the registry
    kernel ``"sampled-tree"``), so the replay equals that kernel's counted
    per-sweep ledger under the shared conventions.
    """
    shape = check_shape(shape, min_ndim=2)
    rank = check_rank(rank)
    n_draws = check_positive_int(n_draws, "n_draws")
    n_modes = len(shape)
    distinct = _check_distinct(distinct_rows, n_modes)

    build_flops = 0
    build_words = 0
    draw_flops = 0
    draw_words = 0
    eval_flops = 0
    eval_words = 0
    for mode in range(n_modes):
        free = tuple(k for k in range(n_modes) if k != mode)
        for k in free:
            flops, words = sampler_build_cost(shape[k], rank, "tree-leverage")
            build_flops += flops
            build_words += words
        flops, words = tree_draw_cost([shape[k] for k in free], rank, n_draws)
        draw_flops += flops
        draw_words += words
        flops, words = estimator_cost(
            int(shape[mode]), rank, len(free), distinct[mode], has_rank=False
        )
        eval_flops += flops
        eval_words += words

    return FusedSweepCost(
        build_flops=build_flops,
        build_words=build_words,
        draw_flops=draw_flops,
        draw_words=draw_words,
        eval_flops=eval_flops,
        eval_words=eval_words,
        n_draws=n_modes * n_draws,
        distinct_rows=sum(distinct),
    )


def expected_distinct_rows(shape: Sequence[int], n_draws: int, *, fused: bool) -> List[int]:
    """Deterministic distinct-count cap per mode: ``min(draws, row space)``.

    The a priori modelling convention of :func:`three_way_crossover`: a draw
    of ``D`` rows can materialize at most ``min(D, J)`` distinct rows, where
    ``J`` is the sampled row space — the full Khatri-Rao row count for the
    per-call kernel, only the free modes' for the fused kernel.
    """
    shape = check_shape(shape, min_ndim=2)
    n_modes = len(shape)
    parents = _build_parents(n_modes)
    caps: List[int] = []
    for mode in range(n_modes):
        if fused:
            space_modes = tuple(k for k in parents[(mode,)] if k != mode)
        else:
            space_modes = tuple(k for k in range(n_modes) if k != mode)
        space = 1
        for k in space_modes:
            space *= int(shape[k])
        caps.append(min(int(n_draws), space))
    return caps


def three_way_crossover(
    shape: Sequence[int],
    ranks: Sequence[int],
    draw_counts: Sequence[int],
) -> List[dict]:
    """Modelled per-sweep flops/words of the three engines over (rank, draws).

    For every ``(R, D)`` cell: the exact ``"dimtree"`` sweep, the per-call
    ``"sampled-tree"`` sweep, and the fused ``"sampled-dimtree"`` sweep
    (distinct counts capped by :func:`expected_distinct_rows`), plus which
    engine wins each of flops and words — the three-way crossover as a
    function of draws and rank.  The fused engine's winning region is the
    window where the draw count is large enough to amortize its fixed
    root-contraction cost against the per-call baseline yet small enough
    that sampled leaf evaluation still undercuts the exact tree.
    """
    shape = check_shape(shape, min_ndim=2)
    rows: List[dict] = []
    for rank in ranks:
        rank = check_rank(rank)
        exact = dimtree_sweep_cost(shape, rank)
        for n_draws in draw_counts:
            fused = sampled_dimtree_sweep_cost(
                shape, rank, n_draws, expected_distinct_rows(shape, n_draws, fused=True)
            )
            baseline = sampled_tree_sweep_cost(
                shape,
                rank,
                n_draws,
                expected_distinct_rows(shape, n_draws, fused=False),
            )
            costs_f = {
                "dimtree": exact.flops,
                "sampled-tree": baseline.flops,
                "sampled-dimtree": fused.flops,
            }
            costs_w = {
                "dimtree": exact.words,
                "sampled-tree": baseline.words,
                "sampled-dimtree": fused.words,
            }
            rows.append(
                {
                    "shape": list(shape),
                    "rank": int(rank),
                    "n_draws": int(n_draws),
                    "flops": costs_f,
                    "words": costs_w,
                    "flops_winner": min(costs_f, key=costs_f.get),
                    "words_winner": min(costs_w, key=costs_w.get),
                    "fused_wins_both": bool(
                        costs_f["sampled-dimtree"] == min(costs_f.values())
                        and costs_w["sampled-dimtree"] == min(costs_w.values())
                    ),
                }
            )
    return rows
