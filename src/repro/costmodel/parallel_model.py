"""Analytic communication/arithmetic/storage models of Algorithms 3 and 4.

These evaluate Eqs. (14)-(16) (stationary) and (18)-(20) (general) under the
balanced data distribution of Section V (``nnz(X_p) = I/P``,
``nnz(A^(k)_p) = I_k R / P``), with the processor grid chosen either by the
caller or by minimising the expression over real-valued grids (the paper's
``P_k ∝ I_k`` rule with clamping at ``P_k >= 1``).

Real-valued grids are the right tool here: the model is meant to be evaluated
at the scales of Figure 4 (``P`` up to ``2^30``), where the difference
between the best integer factorization and the real-valued optimum is
negligible and an integer search would be infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.utils.validation import check_rank, check_shape


def _tensor_size(shape: Sequence[float]) -> float:
    total = 1.0
    for dim in shape:
        total *= float(dim)
    return total


# ---------------------------------------------------------------------------
# optimal real-valued grids
# ---------------------------------------------------------------------------

def optimal_stationary_partition(shape: Sequence[int], n_procs: float) -> Tuple[float, ...]:
    """Real-valued grid minimising ``sum_k I_k / P_k`` s.t. ``prod P_k = P``, ``1 <= P_k <= I_k``.

    Without the box constraints the optimum is ``P_k = I_k / (I/P)^{1/N}``
    (all ``I_k / P_k`` equal).  Constraints are handled by iterative clamping
    (water-filling): dimensions whose unconstrained ``P_k`` falls below 1 are
    fixed at 1 (or above ``I_k`` fixed at ``I_k``) and the remaining
    processors are redistributed over the free dimensions.
    """
    shape = check_shape(shape)
    if n_procs < 1:
        raise ParameterError("n_procs must be >= 1")
    dims = [float(d) for d in shape]
    n_modes = len(dims)
    if float(n_procs) >= _tensor_size(dims):
        return tuple(dims)

    fixed = [None] * n_modes  # type: ignore[list-item]
    for _ in range(n_modes + 1):
        free = [k for k in range(n_modes) if fixed[k] is None]
        if not free:
            break
        remaining = float(n_procs)
        for k in range(n_modes):
            if fixed[k] is not None:
                remaining /= fixed[k]
        remaining = max(remaining, 1.0)
        # Unconstrained optimum over the free dims: P_k proportional to I_k.
        free_product = 1.0
        for k in free:
            free_product *= dims[k]
        scale = (free_product / remaining) ** (1.0 / len(free))
        candidate = {k: dims[k] / scale for k in free}
        violated_low = [k for k in free if candidate[k] < 1.0]
        violated_high = [k for k in free if candidate[k] > dims[k]]
        if not violated_low and not violated_high:
            for k in free:
                fixed[k] = candidate[k]
            break
        for k in violated_low:
            fixed[k] = 1.0
        for k in violated_high:
            fixed[k] = dims[k]
    result = tuple(1.0 if v is None else float(v) for v in fixed)
    return result


# ---------------------------------------------------------------------------
# Algorithm 3 (stationary) model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParallelCosts:
    """Modelled per-processor costs of a parallel MTTKRP algorithm.

    Attributes
    ----------
    communication:
        Words sent (= received) along the critical path (Eq. (14) / (18)).
    arithmetic:
        Operations (Eq. (15) / (19), atomic-multiply variant).
    storage:
        Words of local memory required (Eq. (16) / (20)).
    grid:
        The (possibly real-valued) processor grid used.
    """

    communication: float
    arithmetic: float
    storage: float
    grid: Tuple[float, ...]


def stationary_model_cost(
    shape: Sequence[int],
    rank: int,
    n_procs: float,
    *,
    grid: Optional[Sequence[float]] = None,
) -> float:
    """Eq. (14) under the balanced distribution: ``sum_k (P/P_k - 1) * I_k R / P``."""
    return stationary_costs(shape, rank, n_procs, grid=grid).communication


def stationary_costs(
    shape: Sequence[int],
    rank: int,
    n_procs: float,
    *,
    grid: Optional[Sequence[float]] = None,
) -> ParallelCosts:
    """Full Eq. (14)-(16) model for Algorithm 3."""
    shape = check_shape(shape)
    rank = check_rank(rank)
    if n_procs < 1:
        raise ParameterError("n_procs must be >= 1")
    if grid is None:
        grid = optimal_stationary_partition(shape, n_procs)
    grid = tuple(float(g) for g in grid)
    if len(grid) != len(shape):
        raise ParameterError("grid must have one entry per tensor mode")
    total = _tensor_size(shape)
    p = float(n_procs)
    comm = 0.0
    storage_vectors = 0.0
    for extent, pk in zip(shape, grid):
        comm += max(p / pk - 1.0, 0.0) * extent * rank / p
        storage_vectors += (extent / pk) * rank
    comm = max(comm, 0.0)
    arithmetic = len(shape) * total * rank / p + (p / grid[0] - 1.0) * shape[0] * rank / p
    storage = total / p + storage_vectors
    return ParallelCosts(communication=comm, arithmetic=arithmetic, storage=storage, grid=grid)


# ---------------------------------------------------------------------------
# Algorithm 4 (general) model
# ---------------------------------------------------------------------------

def _general_cost_given_p0(shape: Sequence[int], rank: int, n_procs: float, p0: float) -> Tuple[float, Tuple[float, ...]]:
    """Eq. (18) communication for a given ``P_0`` with the inner grid optimised."""
    total = _tensor_size(shape)
    p = float(n_procs)
    inner_procs = max(p / p0, 1.0)
    inner_grid = optimal_stationary_partition(shape, inner_procs)
    comm = max(p0 - 1.0, 0.0) * total / p
    for extent, pk in zip(shape, inner_grid):
        comm += max(p / (p0 * pk) - 1.0, 0.0) * extent * rank / p
    return max(comm, 0.0), (p0,) + tuple(inner_grid)


def general_model_cost(
    shape: Sequence[int],
    rank: int,
    n_procs: float,
    *,
    p0: Optional[float] = None,
) -> float:
    """Eq. (18) under the balanced distribution, optimised over ``P_0`` when not given."""
    return general_costs(shape, rank, n_procs, p0=p0).communication


def general_costs(
    shape: Sequence[int],
    rank: int,
    n_procs: float,
    *,
    p0: Optional[float] = None,
) -> ParallelCosts:
    """Full Eq. (18)-(20) model for Algorithm 4 (optimising ``P_0`` when not given)."""
    shape = check_shape(shape)
    rank = check_rank(rank)
    if n_procs < 1:
        raise ParameterError("n_procs must be >= 1")
    total = _tensor_size(shape)
    p = float(n_procs)

    if p0 is None:
        upper = max(min(float(rank), p), 1.0)
        if upper <= 1.0:
            p0 = 1.0
        else:
            # 1-D minimisation over log(P_0); the objective is smooth and
            # unimodal.  scipy is imported here only, so that importing the
            # package needs numpy alone.
            from scipy import optimize

            result = optimize.minimize_scalar(
                lambda log_p0: _general_cost_given_p0(shape, rank, p, math.exp(log_p0))[0],
                bounds=(0.0, math.log(upper)),
                method="bounded",
                options={"xatol": 1e-10},
            )
            p0 = float(math.exp(result.x))
            # Endpoints can beat the interior optimum when the objective is monotone.
            candidates = [1.0, p0, upper]
            p0 = min(candidates, key=lambda c: _general_cost_given_p0(shape, rank, p, c)[0])
    else:
        p0 = float(p0)
        if p0 < 1.0:
            raise ParameterError("p0 must be >= 1")

    comm, grid = _general_cost_given_p0(shape, rank, p, p0)
    cols = rank / p0
    inner_grid = grid[1:]
    storage_vectors = sum((extent / pk) * cols for extent, pk in zip(shape, inner_grid))
    storage = total * p0 / p + storage_vectors
    arithmetic = len(shape) * total * rank / p + (p / (p0 * inner_grid[0]) - 1.0) * shape[0] * cols / p
    return ParallelCosts(communication=comm, arithmetic=arithmetic, storage=storage, grid=grid)


# ---------------------------------------------------------------------------
# crossover between the two algorithms
# ---------------------------------------------------------------------------

def crossover_processors(total_size: float, n_modes: int, rank: int) -> float:
    """The processor count ``P = I / (NR)^{N/(N-1)}`` beyond which Algorithm 4 wins.

    Section VI-B: for ``P <= I/(NR)^{N/(N-1)}`` the optimal choice is
    ``P_0 = 1`` (the general algorithm reduces to the stationary one) with
    cost ``N R (I/P)^{1/N}``; beyond it the general algorithm's cost
    ``(N I R / P)^{N/(2N-1)}`` is lower.
    """
    if total_size <= 0 or rank < 1 or n_modes < 2:
        raise ParameterError("need total_size > 0, rank >= 1, n_modes >= 2")
    return float(total_size) / (n_modes * rank) ** (n_modes / (n_modes - 1.0))
