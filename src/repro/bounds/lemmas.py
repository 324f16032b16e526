"""Supporting optimisation lemmas (Lemmas 4.2, 4.3, 4.4 of the paper).

Each lemma is implemented twice:

* a *closed-form* function that returns exactly the expression derived in the
  paper's proof, and
* a *numeric* function that solves the same optimisation problem with
  :mod:`scipy.optimize` (``linprog`` for the LP, ``minimize`` for the
  nonlinear problems).  scipy is imported inside these functions only, so
  importing the package needs numpy alone.

The test-suite cross-checks the two on randomised instances; the bound
formulas in :mod:`repro.bounds.sequential` / :mod:`repro.bounds.parallel` use
only the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.utils.validation import check_positive_int


# ---------------------------------------------------------------------------
# Lemma 4.2: the MTTKRP linear program
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LPSolution:
    """Solution of the linear program of Lemma 4.2.

    Attributes
    ----------
    s:
        Optimal exponent vector ``s*`` of length ``N + 1`` (one entry per
        factor matrix plus one for the tensor).
    objective:
        Optimal objective value ``1^T s* = 2 - 1/N``.
    """

    s: np.ndarray
    objective: float


def mttkrp_constraint_matrix(n_modes: int) -> np.ndarray:
    """The ``(N+1) x (N+1)`` constraint matrix Δ of Lemma 4.2 / Lemma 4.1.

    Rows correspond to the ``N + 1`` loop indices ``(i_1, ..., i_N, r)`` and
    columns to the ``N + 1`` arrays: the ``N`` factor matrices (column ``k``
    involves indices ``i_{k+1}`` and ``r``) followed by the tensor (last
    column, involving ``i_1, ..., i_N`` but not ``r``)::

        Δ = [[ I_NxN   1_Nx1 ],
             [ 1_1xN   0     ]]
    """
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)
    delta = np.zeros((n_modes + 1, n_modes + 1), dtype=np.float64)
    delta[:n_modes, :n_modes] = np.eye(n_modes)
    delta[:n_modes, n_modes] = 1.0
    delta[n_modes, :n_modes] = 1.0
    return delta


def mttkrp_lp_solution(n_modes: int) -> LPSolution:
    """Closed-form solution of the LP of Lemma 4.2.

    ``min 1^T s  s.t.  Δ s >= 1, s >= 0`` has optimum
    ``s* = (1/N, ..., 1/N, 1 - 1/N)`` with objective ``2 - 1/N``.
    """
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)
    s = np.full(n_modes + 1, 1.0 / n_modes)
    s[-1] = 1.0 - 1.0 / n_modes
    return LPSolution(s=s, objective=2.0 - 1.0 / n_modes)


def solve_mttkrp_lp_numeric(n_modes: int) -> LPSolution:
    """Solve the LP of Lemma 4.2 numerically with :func:`scipy.optimize.linprog`."""
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)
    delta = mttkrp_constraint_matrix(n_modes)
    m = n_modes + 1
    from scipy import optimize

    # linprog solves min c^T x s.t. A_ub x <= b_ub; our constraint Δ s >= 1
    # becomes -Δ s <= -1.
    result = optimize.linprog(
        c=np.ones(m),
        A_ub=-delta,
        b_ub=-np.ones(m),
        bounds=[(0.0, 1.0)] * m,
        method="highs",
    )
    if not result.success:  # pragma: no cover - linprog on this tiny LP never fails
        raise RuntimeError(f"linprog failed: {result.message}")
    return LPSolution(s=np.asarray(result.x), objective=float(result.fun))


# ---------------------------------------------------------------------------
# Lemma 4.3: maximise a monomial subject to a sum constraint
# ---------------------------------------------------------------------------

def max_product_given_sum(s: Sequence[float], budget: float) -> float:
    """Closed-form maximum of ``prod_i x_i^{s_i}`` subject to ``sum_i x_i <= budget``.

    Lemma 4.3: the optimum is
    ``budget^{sum_i s_i} * prod_j (s_j / sum_i s_i)^{s_j}``, attained at
    ``x_j = budget * s_j / sum_i s_i``.
    """
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0):
        raise ParameterError("exponents s must be non-negative")
    if budget <= 0:
        raise ParameterError("budget (constant c) must be positive")
    total = float(s.sum())
    if total == 0:
        return 1.0
    # 0^0 := 1 for zero exponents (the corresponding x_j drops out).
    positive = s[s > 0]
    log_value = total * np.log(budget) + float(np.sum(positive * (np.log(positive) - np.log(total))))
    return float(np.exp(log_value))


def max_product_given_sum_argmax(s: Sequence[float], budget: float) -> np.ndarray:
    """The maximiser ``x_j = budget * s_j / sum_i s_i`` of Lemma 4.3."""
    s = np.asarray(s, dtype=np.float64)
    total = float(s.sum())
    if total == 0:
        return np.zeros_like(s)
    return budget * s / total


def max_product_given_sum_numeric(s: Sequence[float], budget: float) -> float:
    """Numerically maximise ``prod x_i^{s_i}`` s.t. ``sum x_i <= budget`` (cross-check).

    Works in log-space for numerical robustness and uses SLSQP with the
    closed-form optimum as a (slightly perturbed) starting point.
    """
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0):
        raise ParameterError("exponents s must be non-negative")
    if budget <= 0:
        raise ParameterError("budget (constant c) must be positive")
    m = len(s)

    def neg_log_objective(x: np.ndarray) -> float:
        return -float(np.sum(s * np.log(np.maximum(x, 1e-300))))

    start = np.full(m, budget / m)
    constraints = [{"type": "ineq", "fun": lambda x: budget - np.sum(x)}]
    bounds = [(1e-12 * budget, budget)] * m
    from scipy import optimize

    result = optimize.minimize(
        neg_log_objective, start, bounds=bounds, constraints=constraints, method="SLSQP"
    )
    return float(np.exp(-result.fun))


# ---------------------------------------------------------------------------
# Lemma 4.4: minimise a sum subject to a monomial constraint
# ---------------------------------------------------------------------------

def min_sum_given_product(s: Sequence[float], floor: float) -> float:
    """Closed-form minimum of ``sum_i x_i`` subject to ``prod_i x_i^{s_i} >= floor``.

    Lemma 4.4: the optimum is
    ``(floor / prod_i s_i^{s_i})^{1 / sum_i s_i} * sum_i s_i``, attained at
    ``x_j = s_j * (floor / prod_i s_i^{s_i})^{1 / sum_i s_i}``.
    """
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0):
        raise ParameterError("exponents s must be non-negative")
    if floor <= 0:
        raise ParameterError("floor (constant c) must be positive")
    total = float(s.sum())
    if total == 0:
        raise ParameterError("at least one exponent must be positive")
    positive = s[s > 0]
    log_scale = (np.log(floor) - float(np.sum(positive * np.log(positive)))) / total
    return float(np.exp(log_scale) * total)


def min_sum_given_product_argmin(s: Sequence[float], floor: float) -> np.ndarray:
    """The minimiser ``x_j = s_j * (floor / prod s_i^{s_i})^{1/sum s_i}`` of Lemma 4.4."""
    s = np.asarray(s, dtype=np.float64)
    total = float(s.sum())
    positive = s[s > 0]
    log_scale = (np.log(floor) - float(np.sum(positive * np.log(positive)))) / total
    return s * float(np.exp(log_scale))


def min_sum_given_product_numeric(s: Sequence[float], floor: float) -> float:
    """Numerically minimise ``sum x_i`` s.t. ``prod x_i^{s_i} >= floor`` (cross-check)."""
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0):
        raise ParameterError("exponents s must be non-negative")
    if floor <= 0:
        raise ParameterError("floor (constant c) must be positive")
    m = len(s)
    log_floor = float(np.log(floor))

    def objective(x: np.ndarray) -> float:
        return float(np.sum(x))

    def constraint(x: np.ndarray) -> float:
        return float(np.sum(s * np.log(np.maximum(x, 1e-300)))) - log_floor

    start = min_sum_given_product_argmin(s, floor) * 1.3 + 1e-6
    constraints = [{"type": "ineq", "fun": constraint}]
    bounds = [(1e-12, None)] * m
    from scipy import optimize

    result = optimize.minimize(
        objective, start, bounds=bounds, constraints=constraints, method="SLSQP"
    )
    return float(result.fun)


# ---------------------------------------------------------------------------
# The segment-bound constant of Theorem 4.1
# ---------------------------------------------------------------------------

def segment_constant(n_modes: int) -> float:
    """The constant ``prod_j (s*_j / sum s*_i)^{s*_j}`` evaluated at ``s*``.

    The proof of Theorem 4.1 shows this constant is at most ``1/N``; the exact
    value is returned here so the bound machinery can expose both the exact
    and the simplified (``1/N``) variants.
    """
    n_modes = check_positive_int(n_modes, "n_modes", minimum=2)
    s = mttkrp_lp_solution(n_modes).s
    total = float(s.sum())
    value = float(np.prod((s / total) ** s))
    return value
