"""Word cost model for sampled MTTKRP, set against the exact blocked algorithm.

The paper's lower bounds (Section IV) assume every point of the MTTKRP
iteration space ``[I_1] x ... x [I_N] x [R]`` is evaluated atomically; the
sampled kernel of :mod:`repro.sketch.sampled_mttkrp` evaluates only the
``S`` distinct sampled columns of the unfolding, so its costs are linear in
``S`` and escape those bounds entirely.  This module provides the closed-form
words of the sampled kernel, parameterized by the number of materialized rows
``S``, sequentially and per processor of a distributed run, and the crossover
sample count at which sampling stops paying off against the words of the
paper's optimal blocked algorithm (Eq. (13), :mod:`repro.costmodel`).

Accuracy is the resource being traded: halving ``S`` halves the word cost
but raises the estimator's variance (relative error decays like
``1/sqrt(S)``), so every model here should be read jointly with the measured
error frontier of ``experiments/sketch_crossover``.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.costmodel.sequential_model import blocked_cost_simplified
from repro.utils.validation import check_mode, check_positive_int, check_rank, check_shape


def sampling_setup_words(shape: Sequence[int], rank: int, mode: int) -> int:
    """Words read once to build the per-factor leverage distributions.

    Each input factor is streamed once (``sum_{k != mode} I_k R``); the exact
    joint distribution would additionally need the full ``J R`` Khatri-Rao
    block, which is why only the product approximation is modelled as a
    communication-relevant default.
    """
    shape = check_shape(shape, min_ndim=2)
    rank = check_rank(rank)
    mode = check_mode(mode, len(shape))
    return sum(int(dim) * rank for k, dim in enumerate(shape) if k != mode)


def sampled_mttkrp_words(
    shape: Sequence[int],
    rank: int,
    mode: int,
    n_samples: int,
    *,
    include_setup: bool = False,
) -> int:
    """Words moved by the sampled kernel in the two-level sequential model.

    ``W(S) = S I_mode`` (sampled fibers) ``+ S (N - 1) R`` (factor rows of
    the sampled Khatri-Rao block) ``+ I_mode R`` (output), plus optionally
    the one-time distribution setup of :func:`sampling_setup_words`.
    """
    shape = check_shape(shape, min_ndim=2)
    rank = check_rank(rank)
    mode = check_mode(mode, len(shape))
    n_samples = check_positive_int(n_samples, "n_samples")
    n_modes = len(shape)
    words = (
        n_samples * int(shape[mode])
        + n_samples * (n_modes - 1) * rank
        + int(shape[mode]) * rank
    )
    if include_setup:
        words += sampling_setup_words(shape, rank, mode)
    return words


def crossover_sample_count(
    shape: Sequence[int],
    rank: int,
    mode: int,
    memory_words: int,
    *,
    include_setup: bool = False,
) -> float:
    """Sample count at which the sampled kernel's words match the exact blocked cost.

    Solves ``W(S) = I + N I R / M^(1 - 1/N)`` (Eq. (13), the communication of
    the paper's optimal blocked algorithm) for ``S``; below this count the
    sampled kernel moves strictly fewer words than *any* exact algorithm is
    allowed to by the lower bound it matches.
    """
    shape = check_shape(shape, min_ndim=2)
    rank = check_rank(rank)
    mode = check_mode(mode, len(shape))
    exact = blocked_cost_simplified(shape, rank, memory_words)
    per_sample = int(shape[mode]) + (len(shape) - 1) * rank
    fixed = int(shape[mode]) * rank
    if include_setup:
        fixed += sampling_setup_words(shape, rank, mode)
    return max((exact - fixed) / per_sample, 0.0)


def optimal_sample_grid(
    shape: Sequence[int], mode: int, n_samples: int, n_procs: int
) -> float:
    """Balanced sample-dimension ``P_s`` of the ``P_s x P_o`` sampled grid.

    Balancing the allgather term ``S (N-1) R / P_s`` against the
    reduce-scatter term ``(P_s - 1) I_mode R / P`` gives
    ``P_s = sqrt(S (N-1) P / I_mode)``, clamped to ``[1, P]``.
    """
    shape = check_shape(shape, min_ndim=2)
    mode = check_mode(mode, len(shape))
    n_samples = check_positive_int(n_samples, "n_samples")
    n_procs = check_positive_int(n_procs, "n_procs")
    ideal = math.sqrt(n_samples * (len(shape) - 1) * n_procs / int(shape[mode]))
    return min(max(ideal, 1.0), float(n_procs))


def parallel_sampled_words(
    shape: Sequence[int], rank: int, mode: int, n_samples: int, n_procs: int
) -> float:
    """Per-processor words of a distributed sampled MTTKRP.

    Processors form a ``P_s x P_o`` grid over samples x output rows (the
    sampled analogue of the stationary algorithm's grid), with the tensor
    distributed conformally so sampled fiber segments are local.  Following
    the per-processor accounting of Eq. (14), each processor allgathers the
    factor rows of its ``S / P_s`` sampled Khatri-Rao rows
    (``(N - 1) R`` words each) and reduce-scatters its partial output block
    (``(P_s - 1) I_mode R / P`` words); ``P_s`` balances the two terms
    (:func:`optimal_sample_grid`).
    """
    rank = check_rank(rank)
    p_s = optimal_sample_grid(shape, mode, n_samples, n_procs)
    shape = check_shape(shape, min_ndim=2)
    n_modes = len(shape)
    allgather = n_samples * (n_modes - 1) * rank / p_s
    reduce_scatter = (p_s - 1.0) * int(shape[mode]) * rank / n_procs
    return float(allgather + reduce_scatter)

