"""Sampled MTTKRP: materialize only the drawn Khatri-Rao rows and fibers.

The exact MTTKRP is ``B = X_(n) @ Z`` with ``Z`` the ``J x R`` Khatri-Rao
product of the input factors.  The sampled kernel draws rows of ``Z`` from one
of the distributions in :mod:`repro.sketch.sampling` and evaluates the
importance-sampling estimator

    ``B_hat = sum over distinct sampled rows j of
      (count_j / (S p_j)) * X_(n)[:, j] * z_j^T``

which is unbiased (``E[B_hat] = B``) for any distribution with full support.
Only the distinct sampled rows of ``Z`` and the matching columns of the
unfolding are ever formed, so both the arithmetic and the data movement of
the kernel scale with the number of *distinct* samples rather than with
``J`` — the randomized route around the paper's communication lower bounds,
which assume every entry of the iteration space is touched.

Sketched CP-ALS runs this estimator through the drivers' registry:
``cp_als(kernel="sampled")`` and ``"sampled-tree"`` build a
:class:`~repro.core.sampled_dimtree.SampledDimtreeKernel` with
``cache=False``, which calls :func:`sampled_mttkrp` on the whole tensor on
every MTTKRP, resampling from one draw stream.

The fiber gather, :func:`_gather_fibers_dense`, serves every sampled
kernel: this one on the whole tensor, the fused kernel of :mod:`repro.core.sampled_dimtree` on a
dimension-tree partial, and the distributed kernels of
:mod:`repro.sketch.parallel` on each rank's block, which they name by its
index ranges together with a mask of the samples the rank owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ParameterError
from repro.sketch.sampling import (
    SampleSet,
    SeedLike,
    draw_krp_samples,
)
from repro.tensor.dense import as_ndarray
from repro.utils.validation import (
    check_factor_matrices,
    check_mode,
    check_positive_int,
    infer_rank,
)


@dataclass(frozen=True)
class SampledMTTKRPReport:
    """Byproducts of the sampled kernel useful for cost accounting.

    Attributes
    ----------
    result:
        The estimated MTTKRP output ``B_hat`` (``I_mode x R``).
    n_draws:
        Number of i.i.d. draws taken.
    distinct_rows:
        Number of distinct Khatri-Rao rows materialized (governs cost).
    krp_entries:
        Entries of the materialized sampled Khatri-Rao block.
    gemm_flops:
        Classical flop count ``2 * I_mode * U * R`` of the sampled GEMM.
    samples:
        The :class:`~repro.sketch.sampling.SampleSet` used.
    """

    result: np.ndarray
    n_draws: int
    distinct_rows: int
    krp_entries: int
    gemm_flops: int
    samples: SampleSet


def default_sample_count(rank: int) -> int:
    """Default number of draws for the sampled kernel: ``128 * R``.

    Leverage-score guarantees need ``O(R log R / eps^2)`` draws; ``128 R``
    makes the kernel a drop-in replacement at moderate accuracy without any
    tuning (callers with a target accuracy should set ``n_samples``
    explicitly).
    """
    return 128 * int(rank)


def estimator_gemm(fibers: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """The sampled-estimator product ``fibers @ weighted``, row-deterministically.

    Evaluated with a fixed sum-of-products reduction (``np.einsum`` without
    BLAS dispatch) so each output element depends only on its own fiber row:
    a row-partitioned evaluation — exactly what the distributed kernel of
    :mod:`repro.sketch.parallel` performs when only the output mode is split —
    is bitwise identical to the full product, which BLAS (whose kernel choice
    varies with the row count) does not guarantee.
    """
    return np.einsum("iu,ur->ir", fibers, weighted)


def _gather_fibers_dense(
    data: np.ndarray,
    axis: int,
    samples: SampleSet,
    mask: Optional[np.ndarray] = None,
    ranges: Optional[Sequence[Tuple[int, int]]] = None,
) -> np.ndarray:
    """Fibers of ``data`` at the sampled rows (``I x U``, or ``I x U x R``).

    ``data`` holds the output mode at ``axis`` and the sampled modes, in
    order, on its other leading axes: the tensor itself, or a dimension-tree
    partial with a trailing rank axis.  ``mask`` keeps only the masked
    samples.  ``ranges`` (every tensor mode's global ``(start, stop)``) says
    ``data`` is the block at those ranges, so sample indices are taken
    relative to each block's start.
    """
    moved = np.moveaxis(data, axis, 0)
    indices = samples.indices if mask is None else samples.indices[mask]
    picker = tuple(
        indices[:, t] if ranges is None else indices[:, t] - ranges[k][0]
        for t, k in enumerate(samples.modes)
    )
    return moved[(slice(None),) + picker]


def sampled_mttkrp(
    tensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    *,
    n_samples: Optional[int] = None,
    distribution: str = "product-leverage",
    seed: SeedLike = None,
    samples: Optional[SampleSet] = None,
    return_report: bool = False,
) -> Union[np.ndarray, SampledMTTKRPReport]:
    """Randomized MTTKRP estimate from sampled Khatri-Rao rows.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor (array-like / ``DenseTensor``).
    factors:
        One factor matrix per mode; entry for ``mode`` ignored.
    mode:
        Output mode.
    n_samples:
        Number of draws, ``None`` or a positive int (default
        :func:`default_sample_count`).
    distribution:
        Sampling distribution (see :mod:`repro.sketch.sampling`); the
        default, ``"product-leverage"``, is the default of the other
        sampled MTTKRP entry points and the distribution of
        ``cp_als(kernel="sampled")``, which calls this function on every
        MTTKRP through
        :class:`~repro.core.sampled_dimtree.SampledDimtreeKernel` with
        ``cache=False``.  The materialized ``"leverage"`` distribution is
        served here only: the sweep kernels draw from the per-factor ones.
    seed:
        Seed or generator for the draws.
    samples:
        Pre-drawn :class:`SampleSet` (overrides ``n_samples`` /
        ``distribution`` / ``seed``); lets callers reuse one draw across
        kernels or control it in tests.
    return_report:
        When ``True`` return a :class:`SampledMTTKRPReport` instead of only
        the estimate.
    """
    if n_samples is not None:
        n_samples = check_positive_int(n_samples, "n_samples")
    data = as_ndarray(tensor)
    shape, ndim = data.shape, data.ndim
    mode = check_mode(mode, ndim)
    rank = infer_rank(factors, mode)
    check_factor_matrices(factors, shape, rank, skip_mode=mode)

    if samples is None:
        n_draws = default_sample_count(rank) if n_samples is None else n_samples
        samples = draw_krp_samples(
            factors, mode, n_draws, distribution=distribution, seed=seed
        )
    elif samples.mode != mode or samples.dims != tuple(
        shape[k] for k in range(ndim) if k != mode
    ):
        raise ParameterError(
            "provided SampleSet does not match the tensor shape and mode"
        )

    krp_rows = samples.krp_rows(factors)
    weighted = krp_rows * samples.weights[:, None]
    fibers = _gather_fibers_dense(data, mode, samples)
    result = np.ascontiguousarray(estimator_gemm(fibers, weighted))

    if not return_report:
        return result
    return SampledMTTKRPReport(
        result=result,
        n_draws=samples.n_draws,
        distinct_rows=samples.n_distinct,
        krp_entries=int(krp_rows.size),
        gemm_flops=2 * int(shape[mode]) * samples.n_distinct * rank,
        samples=samples,
    )

