"""Rank crossover of the dimension-tree ALS engine against independent kernels.

The engine of :mod:`repro.core.dimtree` counts every contraction it performs,
and :func:`repro.core.dimtree.dimtree_sweep_cost` sums the same per-node
charges over the tree, so "modelled" and "counted" agree to the word (the
tests assert ``==``, continuing the measured-vs-modelled discipline of the
sketch subsystems).  This module sets that per-sweep cost beside the
per-mode independent-kernel baseline (the uncached comb) and finds the rank
crossover between them.

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
from typing import Sequence

from repro.core.dimtree import dimtree_sweep_cost
from repro.utils.validation import check_rank, check_shape

__all__ = [
    "dimtree_crossover_rank",
    "dimtree_vs_independent",
]


def _affine_words(shape: Sequence[int], cache: bool):
    """Coefficients ``(a, b)`` of the affine-in-rank sweep words ``a + b R``.

    The caching schedule is rank-independent and every partial carries at
    most one rank axis, so evaluating the exact cost at ``R = 1, 2``
    determines the whole line.
    """
    w1 = dimtree_sweep_cost(shape, 1, cache=cache).words
    w2 = dimtree_sweep_cost(shape, 2, cache=cache).words
    slope = w2 - w1
    return w1 - slope, slope


def dimtree_crossover_rank(shape: Sequence[int]) -> float:
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
    a_tree, b_tree = _affine_words(shape, True)
    a_ind, b_ind = _affine_words(shape, False)
    if b_tree <= b_ind:
        return math.inf
    crossover = (a_ind - a_tree) / (b_tree - b_ind)
    return max(crossover, 0.0)


def dimtree_vs_independent(shape: Sequence[int], rank: int) -> dict:
    """Side-by-side per-sweep comparison (used by the benchmark frontier)."""
    shape = check_shape(shape, min_ndim=2)
    rank = check_rank(rank)
    tree = dimtree_sweep_cost(shape, rank)
    independent = dimtree_sweep_cost(shape, rank, cache=False)
    return {
        "dimtree": tree.to_dict(),
        "independent": independent.to_dict(),
        "flop_speedup": independent.flops / max(tree.flops, 1),
        "word_ratio": tree.words / max(independent.words, 1),
        "crossover_rank": dimtree_crossover_rank(shape),
    }
