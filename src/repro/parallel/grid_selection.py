"""Processor-grid selection for Algorithms 3 and 4.

Section V-C3 suggests ``P_k ≈ I_k / (I/P)^{1/N}`` for the stationary
algorithm and Section V-D3 additionally suggests
``P_0 ≈ (NR)^{N/(2N-1)} / (I/P)^{(N-1)/(2N-1)}`` for the general algorithm.
Those rules give real numbers; on a concrete machine ``P`` must be factored
into integers.  This module provides

* :func:`factorizations` — enumerate all ordered factorizations of ``P``;
* :func:`choose_stationary_grid` / :func:`choose_general_grid` — pick the
  integer grid minimising the *exact* bucket-collective cost the simulator
  will charge (so the chosen grid is optimal for the implementation, not just
  asymptotically);
* :func:`ideal_stationary_grid` / :func:`ideal_general_grid` — the paper's
  real-valued rules, used by the analytic cost models at scales where the
  simulator cannot run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import GridError
from repro.utils.partition import max_part_size
from repro.utils.validation import check_positive_int, check_rank, check_shape


@lru_cache(maxsize=None)
def _factorizations_cached(n: int, parts: int) -> Tuple[Tuple[int, ...], ...]:
    if parts == 1:
        return ((n,),)
    out: List[Tuple[int, ...]] = []
    for divisor in range(1, n + 1):
        if n % divisor == 0:
            for rest in _factorizations_cached(n // divisor, parts - 1):
                out.append((divisor,) + rest)
    return tuple(out)


def factorizations(n: int, parts: int) -> List[Tuple[int, ...]]:
    """All ordered factorizations of ``n`` into exactly ``parts`` positive factors."""
    n = check_positive_int(n, "n")
    parts = check_positive_int(parts, "parts")
    return [tuple(f) for f in _factorizations_cached(n, parts)]


# ---------------------------------------------------------------------------
# exact per-implementation cost of a candidate grid
# ---------------------------------------------------------------------------

def stationary_grid_cost(shape: Sequence[int], rank: int, grid_dims: Sequence[int]) -> int:
    """Words per processor charged by the simulator for Algorithm 3 on this grid.

    For each mode ``k`` the All-Gather (or, for the output mode, the
    Reduce-Scatter) runs over ``q_k = P / P_k`` processors with per-processor
    block size ``w_k = ceil(ceil(I_k / P_k) * R / q_k)``, costing
    ``(q_k - 1) * w_k`` words.  The total is mode-independent (the output mode
    contributes the same expression), matching Eq. (14) with the balanced
    distribution of :class:`~repro.parallel.distribution.StationaryDistribution`.
    """
    shape = check_shape(shape)
    rank = check_rank(rank)
    if len(grid_dims) != len(shape):
        raise GridError("grid must have one dimension per tensor mode")
    n_procs = int(np.prod(grid_dims, dtype=np.int64))
    total = 0
    for k, (extent, pk) in enumerate(zip(shape, grid_dims)):
        q = n_procs // int(pk)
        block_rows = max_part_size(extent, int(pk))
        w = max_part_size(block_rows * rank, q)
        total += (q - 1) * w
    return total


def general_grid_cost(shape: Sequence[int], rank: int, grid_dims: Sequence[int]) -> int:
    """Words per processor charged by the simulator for Algorithm 4 on this grid.

    ``grid_dims = (P_0, P_1, ..., P_N)``.  The tensor All-Gather over the
    ``P_0``-processor fiber costs ``(P_0 - 1) * w_X`` with
    ``w_X = ceil(prod_k ceil(I_k / P_k) / P_0)``; each factor collective runs
    over ``q_k = P / (P_0 P_k)`` processors with
    ``w_k = ceil(ceil(I_k / P_k) * ceil(R / P_0) / q_k)``.  Matches Eq. (18).
    """
    shape = check_shape(shape)
    rank = check_rank(rank)
    if len(grid_dims) != len(shape) + 1:
        raise GridError("grid must have N+1 dimensions (P_0 first)")
    p0 = int(grid_dims[0])
    n_procs = int(np.prod(grid_dims, dtype=np.int64))
    subtensor_words = 1
    for extent, pk in zip(shape, grid_dims[1:]):
        subtensor_words *= max_part_size(extent, int(pk))
    total = (p0 - 1) * max_part_size(subtensor_words, p0)
    cols = max_part_size(rank, p0)
    for extent, pk in zip(shape, grid_dims[1:]):
        q = n_procs // (p0 * int(pk))
        block_rows = max_part_size(extent, int(pk))
        w = max_part_size(block_rows * cols, q)
        total += (q - 1) * w
    return total


# ---------------------------------------------------------------------------
# integer grid selection
# ---------------------------------------------------------------------------

def choose_stationary_grid(shape: Sequence[int], rank: int, n_procs: int) -> Tuple[int, ...]:
    """Best integer ``N``-way grid for Algorithm 3 on ``n_procs`` processors.

    Candidate grids with ``P_k > I_k`` are rejected unless no candidate
    fits, so no grid dimension exceeds its tensor dimension when one can.
    """
    shape = check_shape(shape)
    rank = check_rank(rank)
    n_procs = check_positive_int(n_procs, "n_procs")
    candidates = factorizations(n_procs, len(shape))
    fitting = [c for c in candidates if all(p <= d for p, d in zip(c, shape))]
    if fitting:
        candidates = fitting
    best = min(candidates, key=lambda c: (stationary_grid_cost(shape, rank, c), c))
    return tuple(best)


def choose_general_grid(shape: Sequence[int], rank: int, n_procs: int) -> Tuple[int, ...]:
    """Best integer ``(N+1)``-way grid for Algorithm 4 on ``n_procs`` processors.

    Candidate grids with ``P_0 > R`` or ``P_k > I_k`` are rejected unless no
    candidate fits.
    """
    shape = check_shape(shape)
    rank = check_rank(rank)
    n_procs = check_positive_int(n_procs, "n_procs")
    candidates = factorizations(n_procs, len(shape) + 1)
    fitting = [
        c for c in candidates if c[0] <= rank and all(p <= d for p, d in zip(c[1:], shape))
    ]
    if fitting:
        candidates = fitting
    best = min(candidates, key=lambda c: (general_grid_cost(shape, rank, c), c))
    return tuple(best)


# ---------------------------------------------------------------------------
# the paper's real-valued grid rules (for the analytic cost models)
# ---------------------------------------------------------------------------

def ideal_stationary_grid(shape: Sequence[int], n_procs: float) -> Tuple[float, ...]:
    """Real-valued grid ``P_k = I_k / (I/P)^{1/N}`` of Section V-C3 (clamped to >= 1)."""
    shape = check_shape(shape)
    total = float(np.prod([float(d) for d in shape]))
    n_modes = len(shape)
    local = (total / float(n_procs)) ** (1.0 / n_modes)
    dims = tuple(max(float(d) / local, 1.0) for d in shape)
    return dims


def ideal_general_grid(shape: Sequence[int], rank: int, n_procs: float) -> Tuple[float, ...]:
    """Real-valued ``(P_0, P_1, ..., P_N)`` rule of Section V-D3 (clamped to >= 1).

    ``P_0 = (NR)^{N/(2N-1)} / (I/P)^{(N-1)/(2N-1)}`` and
    ``P_k = I_k / (I P_0 / P)^{1/N}``.
    """
    shape = check_shape(shape)
    rank = check_rank(rank)
    total = float(np.prod([float(d) for d in shape]))
    n_modes = len(shape)
    local = total / float(n_procs)
    p0 = (n_modes * rank) ** (n_modes / (2.0 * n_modes - 1.0)) / local ** (
        (n_modes - 1.0) / (2.0 * n_modes - 1.0)
    )
    p0 = min(max(p0, 1.0), float(rank), float(n_procs))
    per_mode_local = (total * p0 / float(n_procs)) ** (1.0 / n_modes)
    dims = tuple(max(float(d) / per_mode_local, 1.0) for d in shape)
    return (p0,) + dims
