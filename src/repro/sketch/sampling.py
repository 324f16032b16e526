"""Row-sampling distributions over the Khatri-Rao product.

Randomized MTTKRP replaces the full Khatri-Rao product
``Z = KRP(factors except mode)`` (``J x R`` with ``J = prod_{k != mode} I_k``)
by a weighted subset of its rows.  This module provides the distributions the
sampled kernel draws from:

* **uniform** row sampling (the baseline every importance sampler is compared
  against);
* **exact leverage-score** sampling, ``p_j = l_j(Z) / rank(Z)`` with the
  leverage scores computed through the Gram pseudoinverse
  ``l_j = z_j^T (Z^T Z)^+ z_j`` — the distribution with the strongest
  least-squares guarantees (Bharadwaj et al., 2023, compute this distribution
  without materializing ``Z``; here the materialization cost is accepted and
  documented, since the point of this reproduction is the *communication* of
  the downstream kernel);
* the **product-of-factor-leverage** approximation of Bharadwaj et al.: each
  mode's index is drawn independently from that factor matrix's own leverage
  distribution, so no ``J``-length vector is ever formed;
* **tree-based exact leverage** sampling (:mod:`repro.sketch.treesample`):
  the segment-tree sampler of Bharadwaj et al. draws from *exactly* the
  leverage distribution in ``O(R^2 log I_k)`` per draw per mode, without
  materializing the Khatri-Rao product or any length-``J`` vector — the best
  of both strategies above.

Draws are aggregated: a :class:`SampleSet` stores the *distinct* sampled rows
with their multiplicities, because every downstream cost (rows of the
Khatri-Rao product materialized, tensor fibers gathered, words moved) scales
with the number of distinct rows, not the number of draws.  On coherent
problems — exactly the ones leverage sampling is designed for — the
distinction is dramatic.

Every draw goes through one path, :func:`_draw_sample_set`, which draws,
de-duplicates and assembles the :class:`SampleSet` from a prepared
distribution state.  :func:`draw_krp_samples` prepares that state from the
factors on every call; the fused kernel's
:class:`~repro.core.sampled_dimtree.FusedSamplerCache` passes the state it
keeps across mode updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ParameterError
from repro.observe.instrument import inc as observe_inc
from repro.tensor.khatri_rao import khatri_rao_excluding
from repro.utils.validation import check_mode, check_positive_int

SeedLike = Union[None, int, np.random.Generator]

#: Names accepted by :func:`draw_krp_samples` and the sampled kernels.
DISTRIBUTIONS = ("uniform", "leverage", "product-leverage", "tree-leverage")


def check_distribution(distribution: str) -> str:
    """Validate a sampling distribution name against :data:`DISTRIBUTIONS`."""
    if distribution not in DISTRIBUTIONS:
        raise ParameterError(
            f"unknown sampling distribution {distribution!r}; use one of {DISTRIBUTIONS}"
        )
    return distribution


def _as_generator(seed: SeedLike) -> np.random.Generator:
    """Normalise a seed-like argument into a :class:`numpy.random.Generator`."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_leverage_matrix(matrix, name: str = "matrix") -> np.ndarray:
    """Validate a matrix destined for leverage-score computation.

    The shared degenerate-input policy of every leverage-family strategy
    (``"leverage"``, ``"product-leverage"``, ``"tree-leverage"``): non-finite
    entries and rank-deficient all-zero *columns* raise
    :class:`ParameterError` instead of letting NaNs (or a raw ``LinAlgError``
    from the SVD) leak into sampling weights — an all-zero column carries no
    leverage information and callers should drop it rather than sample
    against it.  Returns the validated float64 array.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ParameterError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} contains non-finite entries")
    dead = np.flatnonzero(~np.any(arr != 0.0, axis=0))
    if dead.size:
        raise ParameterError(
            f"{name} has all-zero column(s) {dead.tolist()}: the leverage "
            "distribution is degenerate on rank-deficient all-zero columns; "
            "drop the dead columns first"
        )
    return arr


def leverage_scores(matrix: np.ndarray) -> np.ndarray:
    """Row leverage scores of a single matrix via the Gram pseudoinverse.

    ``l_i = a_i^T (A^T A)^+ a_i`` for each row ``a_i`` of ``A``.  The scores
    lie in ``[0, 1]`` and sum to ``rank(A)``; they measure how much each row
    influences the row space of ``A``.

    Degenerate inputs fail loudly: non-finite entries and rank-deficient
    all-zero *columns* raise :class:`ParameterError` instead of letting NaNs
    (or a raw ``LinAlgError`` from the SVD) leak into downstream sampling
    weights — an all-zero column carries no leverage information and callers
    should drop it rather than sample against it.
    """
    arr = check_leverage_matrix(matrix, "leverage_scores input")
    gram_pinv = np.linalg.pinv(arr.T @ arr)
    scores = np.einsum("ir,rs,is->i", arr, gram_pinv, arr)
    return np.clip(scores, 0.0, None)


def factor_leverage_distribution(matrix: np.ndarray) -> np.ndarray:
    """Leverage scores of one factor matrix normalised into a distribution."""
    scores = leverage_scores(matrix)
    total = float(scores.sum())
    if total <= 0.0:
        raise ParameterError("cannot build a leverage distribution from an all-zero matrix")
    return scores / total


def krp_leverage_scores(
    factors: Sequence[Optional[np.ndarray]], mode: int
) -> np.ndarray:
    """Exact leverage scores of the Khatri-Rao product excluding ``mode``.

    The Gram matrix of the Khatri-Rao product is the Hadamard product of the
    factor Gram matrices, so only the ``J x R`` row block is materialized here
    (never a ``J x J`` object).  The length-``J`` result follows the same row
    ordering as :func:`repro.tensor.khatri_rao.khatri_rao_excluding` — the
    smallest remaining mode varies fastest, matching the Kolda-Bader unfolding.
    """
    krp = khatri_rao_excluding(factors, mode)
    return leverage_scores(krp)


def krp_row_distribution(
    factors: Sequence[Optional[np.ndarray]], mode: int, distribution: str
) -> np.ndarray:
    """Full length-``J`` row-sampling distribution over the Khatri-Rao product.

    Materializes the joint probability vector for any of the supported
    distributions (used by tests and experiments; the samplers themselves only
    form this vector for ``"leverage"``).
    """
    mode = check_mode(mode, len(factors))
    check_distribution(distribution)
    if distribution == "uniform":
        count = 1
        for k, f in enumerate(factors):
            if k != mode:
                count *= int(np.asarray(f).shape[0])
        return np.full(count, 1.0 / count)
    if distribution == "leverage":
        scores = krp_leverage_scores(factors, mode)
        total = float(scores.sum())
        if total <= 0.0:
            raise ParameterError(
                "cannot build a leverage distribution from all-zero factors"
            )
        return scores / total
    if distribution == "product-leverage":
        # The joint probability of row j = (i_k)_{k != mode} is the product of
        # the per-factor probabilities; expressed as a Khatri-Rao product of
        # column vectors it inherits exactly the row ordering of the KRP.
        columns: list = list(factors)
        for k, f in enumerate(factors):
            if k != mode:
                columns[k] = factor_leverage_distribution(np.asarray(f))[:, None]
        return khatri_rao_excluding(columns, mode).ravel()
    # "tree-leverage": the same distribution as "leverage", evaluated through
    # the Hadamard factor-Gram pseudoinverse the tree sampler descends with.
    from repro.sketch.treesample import tree_joint_distribution

    return tree_joint_distribution(factors, mode)


@dataclass(frozen=True)
class SampleSet:
    """Distinct sampled Khatri-Rao rows with multiplicities and probabilities.

    Attributes
    ----------
    mode:
        The excluded (output) mode.
    modes:
        The sampled modes, in increasing order.
    dims:
        Extents of the sampled modes (``I_k`` for ``k`` in ``modes``).
    n_draws:
        Number of i.i.d. draws taken (with replacement).
    indices:
        Integer array of shape ``(U, N-1)``: per-mode indices of the ``U``
        distinct sampled rows, one column per entry of ``modes``.
    counts:
        Multiplicity of each distinct row among the draws (sums to
        ``n_draws``).
    probabilities:
        Probability of each distinct row under the sampling distribution.
    distribution:
        Name of the distribution the rows were drawn from.
    """

    mode: int
    modes: Tuple[int, ...]
    dims: Tuple[int, ...]
    n_draws: int
    indices: np.ndarray
    counts: np.ndarray
    probabilities: np.ndarray
    distribution: str

    @property
    def n_distinct(self) -> int:
        """Number of distinct sampled rows (rows actually materialized)."""
        return int(self.indices.shape[0])

    @property
    def weights(self) -> np.ndarray:
        """Unbiased estimator weights ``count_j / (n_draws * p_j)`` per distinct row."""
        return self.counts / (self.n_draws * self.probabilities)

    def linear_rows(self) -> np.ndarray:
        """Linear Khatri-Rao row index of each distinct sample.

        Uses the Kolda-Bader convention (smallest remaining mode varies
        fastest), so these index both the rows of
        :func:`~repro.tensor.khatri_rao.khatri_rao_excluding` and the columns
        of the mode-``mode`` unfolding.
        """
        if self.n_distinct == 0:
            return np.zeros(0, dtype=np.int64)
        return np.ravel_multi_index(
            tuple(self.indices[:, t] for t in range(len(self.modes))), self.dims, order="F"
        )

    def in_block(self, ranges: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Mask of the distinct rows whose every index lies in ``ranges``.

        ``ranges`` holds every tensor mode's global ``(start, stop)``, as a
        block of a distributed tensor does; only the sampled modes are read.
        """
        mask = np.ones(self.n_distinct, dtype=bool)
        for t, k in enumerate(self.modes):
            start, stop = ranges[k]
            column = self.indices[:, t]
            mask &= (column >= start) & (column < stop)
        return mask

    def krp_rows(self, factors: Sequence[Optional[np.ndarray]]) -> np.ndarray:
        """Materialize the distinct sampled Khatri-Rao rows (``U x R``)."""
        result: Optional[np.ndarray] = None
        for t, k in enumerate(self.modes):
            rows = np.asarray(factors[k])[self.indices[:, t], :]
            result = rows.copy() if result is None else result * rows
        if result is None:
            raise ParameterError("SampleSet covers no modes")
        return result


def draw_krp_samples(
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    n_draws: int,
    *,
    distribution: str = "product-leverage",
    seed: SeedLike = None,
) -> SampleSet:
    """Draw ``n_draws`` Khatri-Rao rows i.i.d. and aggregate distinct rows.

    Parameters
    ----------
    factors:
        One factor matrix per mode (entry at ``mode`` ignored, may be None).
    mode:
        The excluded (output) mode.
    n_draws:
        Number of draws with replacement.
    distribution:
        ``"product-leverage"`` (the default, as for every sampled entry
        point: per-factor leverage scores, sampled independently per mode —
        never materializes a length-``J`` vector), ``"uniform"``,
        ``"leverage"`` (exact Khatri-Rao leverage scores, drawn against the
        materialized length-``J`` score vector), or ``"tree-leverage"``
        (the segment-tree sampler of :mod:`repro.sketch.treesample` — exact
        leverage draws that also never materialize a length-``J`` vector).
    seed:
        Seed or generator for reproducibility.
    """
    mode = check_mode(mode, len(factors))
    n_draws = check_positive_int(n_draws, "n_draws")
    rng = _as_generator(seed)
    modes = tuple(k for k in range(len(factors)) if k != mode)
    if not modes:
        raise ParameterError("sampling requires a tensor with at least two modes")
    dims = tuple(int(np.asarray(factors[k]).shape[0]) for k in modes)

    check_distribution(distribution)
    if distribution == "uniform":
        state = None
    elif distribution == "leverage":
        state = krp_row_distribution(factors, mode, "leverage")
    elif distribution == "product-leverage":
        state = [factor_leverage_distribution(np.asarray(factors[k])) for k in modes]
    else:  # "tree-leverage"
        from repro.sketch.treesample import KRPTreeSampler

        state = KRPTreeSampler(factors, mode)
    return _draw_sample_set(distribution, state, mode, modes, dims, n_draws, rng)


def _draw_sample_set(
    distribution: str,
    state,
    mode: int,
    modes: Tuple[int, ...],
    dims: Tuple[int, ...],
    n_draws: int,
    rng: np.random.Generator,
) -> SampleSet:
    """Draw ``n_draws`` rows from a prepared distribution; aggregate the distinct ones.

    The one draw path of :func:`draw_krp_samples` and of the fused kernel's
    :class:`~repro.core.sampled_dimtree.FusedSamplerCache`: the per-mode
    draws, the de-duplication, the probabilities of the distinct rows and
    the :class:`SampleSet`.  Each caller prepares ``state`` for the rows of
    the Khatri-Rao product over ``modes`` (extents ``dims``): the joint
    length-``J`` vector for ``"leverage"``, the per-mode row distributions
    for ``"product-leverage"`` and a
    :class:`~repro.sketch.treesample.KRPTreeSampler` for ``"tree-leverage"``;
    ``"uniform"`` reads no state.
    """
    total = 1
    for dim in dims:
        total *= dim
    if distribution == "uniform":
        drawn = np.stack([rng.integers(0, dim, size=n_draws) for dim in dims], axis=1)
    elif distribution == "leverage":
        linear = rng.choice(total, size=n_draws, p=state)
        drawn = np.stack(np.unravel_index(linear, dims, order="F"), axis=1)
    elif distribution == "product-leverage":
        drawn = np.stack(
            [rng.choice(dim, size=n_draws, p=p) for dim, p in zip(dims, state)], axis=1
        )
    else:
        drawn = state.draw_indices(n_draws, rng)

    keys = np.ravel_multi_index(tuple(drawn[:, t] for t in range(len(modes))), dims, order="F")
    unique_keys, counts = np.unique(keys, return_counts=True)
    observe_inc("sampler.draws", n_draws)
    observe_inc("sampler.distinct", int(unique_keys.shape[0]))
    indices = np.stack(np.unravel_index(unique_keys, dims, order="F"), axis=1).astype(np.int64)

    if distribution == "uniform":
        probabilities = np.full(unique_keys.shape[0], 1.0 / total)
    elif distribution == "leverage":
        probabilities = state[unique_keys]
    elif distribution == "tree-leverage":
        probabilities = state.row_probabilities(indices)
    else:
        probabilities = np.ones(unique_keys.shape[0])
        for t, p in enumerate(state):
            probabilities = probabilities * p[indices[:, t]]

    return SampleSet(
        mode=mode,
        modes=modes,
        dims=dims,
        n_draws=n_draws,
        indices=indices,
        counts=counts.astype(np.int64),
        probabilities=probabilities,
        distribution=distribution,
    )
