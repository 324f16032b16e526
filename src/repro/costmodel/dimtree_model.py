"""Cost model of the dimension-tree ALS engine (per-sweep terms + crossover).

The engine of :mod:`repro.core.dimtree` counts every contraction it performs;
this module exposes the *modelled* per-sweep costs — obtained by replaying
the same caching schedule symbolically — together with the per-mode
independent-kernel baseline and the rank crossover between them.  Because the
model replays the implementation's schedule exactly, "modelled" and
"counted" agree to the word (the tests assert ``==``, continuing the
measured-vs-modelled discipline of the sketch subsystems).

Both per-sweep word costs are *affine in the rank* ``R`` (every partial
carries at most one rank axis), which gives the crossover in closed form:
the tree trades ``N - 2`` full tensor reads per sweep (a rank-independent
saving) for extra traffic on rank-carrying internal partials (a cost linear
in ``R``).  On lopsided shapes whose root-children partials are large
relative to the tensor, the tree's word cost therefore overtakes the
independent kernels' above a finite rank —
:func:`dimtree_crossover_rank` returns that threshold (``inf`` when the tree
wins at every rank, as it does for cubic shapes).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.dimtree import ModeSplit, dimtree_sweep_cost, split_chain
from repro.parallel.dimtree import (
    predicted_dimtree_ledger,
    predicted_dimtree_sweep_words,
)
from repro.utils.validation import check_rank, check_shape

__all__ = [
    "dimtree_sweep_flops",
    "dimtree_sweep_words",
    "dimtree_crossover_rank",
    "dimtree_vs_independent",
    "predicted_dimtree_ledger",
    "predicted_dimtree_sweep_words",
]


def dimtree_sweep_flops(
    shape: Sequence[int], rank: int, *, split: Optional[ModeSplit] = None
) -> int:
    """Counted flops of one steady-state ALS sweep of the dimension tree."""
    return dimtree_sweep_cost(shape, rank, split=split).flops


def dimtree_sweep_words(
    shape: Sequence[int], rank: int, *, split: Optional[ModeSplit] = None
) -> int:
    """Counted words of one steady-state ALS sweep of the dimension tree."""
    return dimtree_sweep_cost(shape, rank, split=split).words


def _affine_words(shape: Sequence[int], cache: bool, split: Optional[ModeSplit]):
    """Coefficients ``(a, b)`` of the affine-in-rank sweep words ``a + b R``.

    The caching schedule is rank-independent and every partial carries at
    most one rank axis, so evaluating the exact replay at ``R = 1, 2``
    determines the whole line.
    """
    w1 = dimtree_sweep_cost(shape, 1, split=split, cache=cache).words
    w2 = dimtree_sweep_cost(shape, 2, split=split, cache=cache).words
    slope = w2 - w1
    return w1 - slope, slope


def dimtree_crossover_rank(
    shape: Sequence[int], *, split: Optional[ModeSplit] = None
) -> float:
    """Rank above which the tree's per-sweep words exceed the independent kernels'.

    Both word models are exactly affine in ``R`` (the caching schedule does
    not depend on the rank), so the crossover is the intersection of two
    lines, evaluated from the models at ``R = 1, 2``.  Returns ``inf`` when
    the tree moves fewer words at every rank (its slope does not exceed the
    baseline's), and ``0.0`` in the degenerate case of a tree that never
    wins (``N = 2``, where both schedules coincide, yields ``inf`` as the
    lines are identical — equality is not "exceeding").
    """
    shape = check_shape(shape, min_ndim=2)
    a_tree, b_tree = _affine_words(shape, True, split)
    a_ind, b_ind = _affine_words(shape, False, split_chain)
    if b_tree <= b_ind:
        return math.inf
    crossover = (a_ind - a_tree) / (b_tree - b_ind)
    return max(crossover, 0.0)


def dimtree_vs_independent(
    shape: Sequence[int], rank: int, *, split: Optional[ModeSplit] = None
) -> dict:
    """Side-by-side per-sweep comparison (used by the benchmark frontier)."""
    shape = check_shape(shape, min_ndim=2)
    rank = check_rank(rank)
    tree = dimtree_sweep_cost(shape, rank, split=split)
    independent = dimtree_sweep_cost(shape, rank, split=split_chain, cache=False)
    return {
        "dimtree": tree.to_dict(),
        "independent": independent.to_dict(),
        "flop_speedup": independent.flops / max(tree.flops, 1),
        "word_ratio": tree.words / max(independent.words, 1),
        "crossover_rank": dimtree_crossover_rank(shape, split=split),
    }
