"""Analytic communication cost models (the formulas of Sections V and VI).

These models evaluate the paper's upper-bound expressions at arbitrary scale
(up to the ``P = 2^30``, ``I = 2^45`` configuration of Figure 4, far beyond
what the executable simulator can run) and are validated at small scale
against the measured communication of the simulated algorithms.
"""

from repro.costmodel.sequential_model import (
    unblocked_cost,
    blocked_cost_upper_bound,
    blocked_cost_simplified,
    matmul_sequential_cost,
)
from repro.costmodel.parallel_model import (
    optimal_stationary_partition,
    stationary_model_cost,
    general_model_cost,
    stationary_costs,
    general_costs,
    crossover_processors,
    ParallelCosts,
)
from repro.costmodel.matmul import (
    carma_cost,
    matmul_parallel_cost,
    matmul_regime,
)
from repro.costmodel.strong_scaling import (
    strong_scaling_series,
    StrongScalingPoint,
)
from repro.costmodel.fused_model import (
    expected_distinct_rows,
    sampled_dimtree_sweep_cost,
    sampled_tree_sweep_cost,
    three_way_crossover,
)
from repro.costmodel.dimtree_model import (
    dimtree_crossover_rank,
    dimtree_vs_independent,
)

__all__ = [
    "unblocked_cost",
    "blocked_cost_upper_bound",
    "blocked_cost_simplified",
    "matmul_sequential_cost",
    "optimal_stationary_partition",
    "stationary_model_cost",
    "general_model_cost",
    "stationary_costs",
    "general_costs",
    "crossover_processors",
    "ParallelCosts",
    "carma_cost",
    "matmul_parallel_cost",
    "matmul_regime",
    "strong_scaling_series",
    "StrongScalingPoint",
    "dimtree_crossover_rank",
    "dimtree_vs_independent",
    "expected_distinct_rows",
    "sampled_dimtree_sweep_cost",
    "sampled_tree_sweep_cost",
    "three_way_crossover",
]
