"""Mapping drawn Khatri-Rao samples onto the stationary data distribution.

The distributed sampled MTTKRP keeps the tensor distributed exactly as
Algorithm 3 does (an ``N``-way processor grid, every rank owning one
sub-tensor, factor block rows chunked across hyperslices — see
:class:`repro.parallel.distribution.StationaryDistribution`).  What changes is
*which* data moves: only the factor rows indexed by the distinct drawn
Khatri-Rao samples are gathered, and only the sampled fibers are multiplied.

This module provides the sample-index layer of that algorithm:

* :class:`SampleAssignment` — given a :class:`~repro.sketch.sampling.SampleSet`
  and a :class:`StationaryDistribution`, computes which ranks own which
  distinct samples (a sample is owned by the ``P_n`` ranks whose sub-tensor
  blocks contain its fiber segments), which sampled factor rows fall in each
  grid block, and what each rank contributes to the sampled-row All-Gathers;
* :func:`choose_sampled_grid` / :func:`sampled_grid_cost` — integer grid
  selection minimising the estimated bucket-collective cost of the *sampled*
  algorithm (small sample counts push processors onto the output mode, where
  the exact algorithm would instead balance all modes).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import DistributionError
from repro.parallel.distribution import StationaryDistribution
from repro.sketch.sampling import SampleSet
from repro.utils.partition import max_part_size
from repro.utils.validation import check_mode, check_positive_int, check_rank, check_shape


class SampleAssignment:
    """Per-rank view of a :class:`SampleSet` under a stationary distribution.

    Parameters
    ----------
    dist:
        The :class:`StationaryDistribution` of the tensor and factor matrices.
    samples:
        The drawn sample set; its ``mode`` and ``dims`` must match ``dist``.
    """

    def __init__(self, dist: StationaryDistribution, samples: SampleSet) -> None:
        if samples.mode != dist.mode:
            raise DistributionError(
                f"sample set excludes mode {samples.mode} but the distribution "
                f"outputs mode {dist.mode}"
            )
        expected_dims = tuple(
            dist.shape[k] for k in range(len(dist.shape)) if k != dist.mode
        )
        if samples.dims != expected_dims:
            raise DistributionError(
                f"sample set dims {samples.dims} do not match the distributed "
                f"tensor shape {dist.shape} (mode {dist.mode} excluded)"
            )
        self.dist = dist
        self.samples = samples
        self.grid = dist.grid
        #: sorted distinct sampled row indices of each sampled mode, per grid block:
        #: ``(k, p_k) -> ascending global indices within S^(k)_{p_k}``
        self._block_rows: Dict[Tuple[int, int], np.ndarray] = {}
        for t, k in enumerate(samples.modes):
            distinct = np.unique(samples.indices[:, t])
            for pk, (start, stop) in enumerate(dist.mode_partitions[k]):
                lo = np.searchsorted(distinct, start)
                hi = np.searchsorted(distinct, stop)
                self._block_rows[(k, pk)] = distinct[lo:hi]

    # -- sample ownership -------------------------------------------------------
    def owned_mask(self, rank: int) -> np.ndarray:
        """Boolean mask over distinct samples owned by ``rank``.

        A rank owns a sample when every sampled-mode index falls inside the
        rank's sub-tensor block ranges — i.e. when the rank's sub-tensor holds
        that sample's fiber segment.  Every sample is owned by exactly
        ``P_n`` ranks (one per grid coordinate along the output mode), which
        together hold the whole fiber.
        """
        return self.samples.in_block(self.dist.subtensor_ranges(rank))

    # -- sampled factor rows ----------------------------------------------------
    def sampled_rows_in_block(self, k: int, pk: int) -> np.ndarray:
        """Ascending distinct sampled row indices of mode ``k`` within block ``p_k``.

        These are exactly the rows delivered by the sampled-row All-Gather of
        the mode-``k`` hyperslice with coordinate ``p_k``; the returned order
        is the row order of the gathered matrix.
        """
        try:
            return self._block_rows[(k, pk)]
        except KeyError as exc:
            raise DistributionError(
                f"mode {k} is not a sampled mode or block {pk} is out of range"
            ) from exc

    def rank_gather_contribution(self, k: int, rank: int) -> np.ndarray:
        """Sampled mode-``k`` rows that ``rank`` contributes to its All-Gather.

        The contribution is the intersection of the rank's owned factor-row
        chunk with the sampled rows of its block; concatenating the
        contributions of a hyperslice group in rank order reproduces
        :meth:`sampled_rows_in_block` (chunks ascend with group position).
        """
        rows = self.dist.factor_local_rows(k, rank)
        pk = self.grid.coords(rank)[k]
        sampled = self.sampled_rows_in_block(k, pk)
        if rows.size == 0 or sampled.size == 0:
            return np.zeros(0, dtype=np.int64)
        lo = np.searchsorted(sampled, rows[0])
        hi = np.searchsorted(sampled, rows[-1] + 1)
        return sampled[lo:hi]


# ---------------------------------------------------------------------------
# grid selection for the sampled algorithm
# ---------------------------------------------------------------------------

def sampled_grid_cost(
    shape: Sequence[int],
    rank: int,
    mode: int,
    n_samples: int,
    grid_dims: Sequence[int],
) -> int:
    """Estimated per-rank words of the sampled algorithm on a candidate grid.

    Assumes the ``U ~ n_samples`` distinct samples spread evenly over the
    mode-``k`` blocks (``min(ceil(U / P_k), block extent)`` sampled rows per
    block, chunked evenly over the ``q_k = P / P_k`` gather participants) and
    uses the row-granular Reduce-Scatter pieces the simulator actually
    charges.  An estimate, not a bound — the measured cost depends on the
    draw; :mod:`repro.sketch.parallel.reconcile` provides the exact per-draw
    predictor.
    """
    shape = check_shape(shape, min_ndim=2)
    rank = check_rank(rank)
    mode = check_mode(mode, len(shape))
    n_samples = check_positive_int(n_samples, "n_samples")
    if len(grid_dims) != len(shape):
        raise DistributionError("grid must have one dimension per tensor mode")
    n_procs = 1
    for dim in grid_dims:
        n_procs *= int(dim)
    total = 0
    for k, (extent, pk) in enumerate(zip(shape, grid_dims)):
        pk = int(pk)
        q = n_procs // pk
        if k == mode:
            block_rows = max_part_size(extent, pk)
            total += (q - 1) * max_part_size(block_rows, q) * rank
        else:
            block_samples = min(max_part_size(n_samples, pk), max_part_size(extent, pk))
            total += (q - 1) * max_part_size(block_samples, q) * rank
    return total


def choose_sampled_grid(
    shape: Sequence[int],
    rank: int,
    mode: int,
    n_samples: int,
    n_procs: int,
) -> Tuple[int, ...]:
    """Best integer ``N``-way grid for the distributed sampled MTTKRP.

    Enumerates every ordered factorization of ``n_procs`` (like
    :func:`repro.parallel.grid_selection.choose_stationary_grid`, keeping
    only the grids with ``P_k <= I_k`` unless none fits) and picks the one
    minimising :func:`sampled_grid_cost`.  For sample counts well
    below the crossover this concentrates processors on the output mode —
    the sampled factor gathers are tiny, so splitting the output
    Reduce-Scatter is what pays.
    """
    from repro.parallel.grid_selection import factorizations

    shape = check_shape(shape, min_ndim=2)
    rank = check_rank(rank)
    mode = check_mode(mode, len(shape))
    n_procs = check_positive_int(n_procs, "n_procs")
    candidates: List[Tuple[int, ...]] = factorizations(n_procs, len(shape))
    fitting = [c for c in candidates if all(p <= d for p, d in zip(c, shape))]
    if fitting:
        candidates = fitting
    best = min(
        candidates, key=lambda c: (sampled_grid_cost(shape, rank, mode, n_samples, c), c)
    )
    return tuple(best)
