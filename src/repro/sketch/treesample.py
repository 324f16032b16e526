"""Tree-based exact Khatri-Rao leverage sampling (Bharadwaj et al., 2023).

The exact leverage-score distribution over the rows of the Khatri-Rao product
``Z = KRP(factors except mode)`` is ``p_j = z_j^T G^+ z_j / rank(Z)`` with
``G = Z^T Z`` the Hadamard product of the factor Gram matrices.  The
``"leverage"`` strategy of :mod:`repro.sketch.sampling` draws from it by
materializing the full ``J x R`` row block — an ``O(J R)`` setup that the
paper's lower-bound regime makes the dominant cost, and that the distributed
kernel pays as a leverage-score All-Gather.

This module implements the segment-tree sampler of Bharadwaj, Malik & Murray
("Fast Exact Leverage Score Sampling from Khatri-Rao Products", 2023), which
draws from *exactly* the same distribution without ever forming ``Z``.  The
row multi-index ``(i_k)_{k != mode}`` is drawn one mode at a time, in
increasing mode order.  Conditioned on the previously drawn rows (their
elementwise product ``h``), the unnormalized probability of row ``i`` of the
mode-``k_t`` factor ``A`` is

    ``q_i = (h * a_i)^T W_t (h * a_i)  =  h^T (W_t * a_i a_i^T) h``

where ``W_t = G^+ * (circ_{s > t} G^(k_s))`` Hadamard-multiplies the Gram
pseudoinverse with the Grams of the modes not yet drawn.  Summing ``q_i``
over a *set* of rows replaces the outer product by the set's partial Gram —
so a binary segment tree whose node ``v`` stores
``G_v = sum_{i in v} a_i a_i^T`` supports drawing by top-down descent:
compare the target mass against the left child's ``h^T (W * G_L) h`` and
recurse.  Each draw costs ``O(R^2 log I_k)`` per mode after an
``O(I_k R^2)`` one-time tree build, and the only length-``I_k`` objects ever
touched are the factor rows themselves.

Registered as ``distribution="tree-leverage"`` in
:mod:`repro.sketch.sampling`; statistical tests
(``tests/test_sketch_treesample.py``) verify the draws match the exact
``"leverage"`` distribution in total-variation distance, and an oracle test
checks the conditional factorization above.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ParameterError
from repro.observe.instrument import inc as observe_inc
from repro.utils.validation import check_mode, check_positive_int

#: Name under which this sampler is registered in
#: :data:`repro.sketch.sampling.DISTRIBUTIONS`.
TREE_DISTRIBUTION = "tree-leverage"


class GramSegmentTree:
    """Binary segment tree of partial Gram matrices over one factor's rows.

    The tree is stored heap-style over ``size = 2^ceil(log2 I)`` padded
    leaves: node ``v`` has children ``2v`` and ``2v + 1``, leaf ``size + i``
    holds ``a_i a_i^T`` (zero beyond row ``I - 1``), and every internal node
    holds the sum of its children.  ``batched_draw`` descends all draws one
    level at a time, so the per-level mass evaluations vectorize across
    draws.

    Attributes
    ----------
    n_rows:
        Number of real rows ``I``.
    size:
        Number of padded leaves (smallest power of two ``>= I``).
    levels:
        Descent depth ``log2(size)`` — node evaluations per draw.
    node_evaluations:
        Running count of per-draw node-mass evaluations (for the
        ``O(log I)``-per-draw complexity tests).
    """

    def __init__(self, matrix: np.ndarray) -> None:
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2:
            raise ParameterError(
                f"GramSegmentTree requires a 2-D factor matrix, got ndim={arr.ndim}"
            )
        if arr.shape[0] < 1:
            raise ParameterError("GramSegmentTree requires at least one row")
        self.n_rows = int(arr.shape[0])
        self.rank = int(arr.shape[1])
        self.size = 1 << (self.n_rows - 1).bit_length()
        self.levels = self.size.bit_length() - 1
        self.node_evaluations = 0
        grams = np.zeros((2 * self.size, self.rank, self.rank))
        grams[self.size : self.size + self.n_rows] = np.einsum(
            "ir,is->irs", arr, arr
        )
        for v in range(self.size - 1, 0, -1):
            grams[v] = grams[2 * v] + grams[2 * v + 1]
        self._grams = grams
        observe_inc("treesample.tree_builds")

    @property
    def root_gram(self) -> np.ndarray:
        """The full factor Gram ``A^T A`` (sum of every leaf outer product)."""
        return self._grams[1]

    def node_gram(self, node: int) -> np.ndarray:
        """Partial Gram stored at heap index ``node`` (root is 1)."""
        if not 1 <= node < 2 * self.size:
            raise ParameterError(f"node {node} outside the tree (size {self.size})")
        return self._grams[node]

    def _masses(self, nodes: np.ndarray, weight: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Subtree masses ``h_d^T (W * G_{v_d}) h_d`` for a batch of draws."""
        self.node_evaluations += int(nodes.shape[0])
        masses = np.einsum(
            "dr,rs,drs,ds->d", h, weight, self._grams[nodes], h, optimize=True
        )
        # Schur products of PSD matrices are PSD, so negative masses are pure
        # floating-point noise; clamp so the descent comparisons stay ordered.
        return np.maximum(masses, 0.0)

    def batched_draw(
        self, weight: np.ndarray, h: np.ndarray, u: np.ndarray
    ) -> np.ndarray:
        """Draw one row index per batch entry by top-down tree descent.

        Parameters
        ----------
        weight:
            The ``R x R`` conditional weight matrix ``W_t`` shared by every
            draw in the batch.
        h:
            Per-draw conditioning vectors (``D x R``) — the elementwise
            product of the rows drawn for the earlier modes.
        u:
            Per-draw uniforms in ``[0, 1)``; the target mass is
            ``u * root mass``, so a fixed ``u`` makes the draw deterministic.
        """
        h = np.atleast_2d(np.asarray(h, dtype=np.float64))
        u = np.asarray(u, dtype=np.float64)
        nodes = np.ones(h.shape[0], dtype=np.int64)
        root_mass = self._masses(nodes, weight, h)
        if np.any(root_mass <= 0.0):
            raise ParameterError(
                "tree-leverage descent reached a zero-mass subtree; the factor "
                "matrices give the Khatri-Rao product a degenerate leverage "
                "distribution"
            )
        target = u * root_mass
        for _ in range(self.levels):
            left = 2 * nodes
            left_mass = self._masses(left, weight, h)
            go_left = target < left_mass
            nodes = np.where(go_left, left, left + 1)
            target = np.where(go_left, target, target - left_mass)
        # Rounding can push a boundary draw into the zero-mass padding; clamp
        # back onto the last real row (a measure-zero event).
        return np.minimum(nodes - self.size, self.n_rows - 1)


def _check_sampled_factor(matrix: np.ndarray, k: int) -> np.ndarray:
    """Validate one sampled-mode factor for leverage sampling.

    Delegates to the shared degenerate-input policy of
    :func:`repro.sketch.sampling.check_leverage_matrix` (an all-zero column
    in any factor zeroes the matching Khatri-Rao column, so the per-factor
    check rejects exactly the problems ``"leverage"`` rejects on the
    materialized product).
    """
    from repro.sketch.sampling import check_leverage_matrix

    return check_leverage_matrix(matrix, f"factor {k}")


class KRPTreeSampler:
    """Reusable exact KRP leverage sampler for one ``(factors, mode)`` pair.

    Holds the per-factor segment trees, the Hadamard Gram pseudoinverse, and
    the per-position conditional weight matrices ``W_t``, so repeated draws
    (e.g. per-iteration resampling inside ALS) pay the tree build once.

    Attributes
    ----------
    mode:
        The excluded (output) mode.
    modes:
        Sampled modes in increasing order — also the conditional draw order.
    gram:
        The Khatri-Rao Gram ``G`` (Hadamard product of factor Grams).
    gram_pinv:
        ``G^+`` — the matrix the leverage quadratic forms are taken in.
    total_mass:
        ``sum_j z_j^T G^+ z_j = trace(G^+ G)``, the normalizer (equals
        ``rank(Z)`` in exact arithmetic).
    """

    def __init__(
        self,
        factors: Sequence[Optional[np.ndarray]],
        mode: int,
        *,
        trees: Optional[Sequence[GramSegmentTree]] = None,
    ) -> None:
        mode = check_mode(mode, len(factors))
        self.mode = mode
        self.modes = tuple(k for k in range(len(factors)) if k != mode)
        if not self.modes:
            raise ParameterError("sampling requires a tensor with at least two modes")
        self.factors = [_check_sampled_factor(factors[k], k) for k in self.modes]
        rank = self.factors[0].shape[1]
        for k, f in zip(self.modes, self.factors):
            if f.shape[1] != rank:
                raise ParameterError(
                    f"factor {k} has {f.shape[1]} columns, expected {rank}"
                )
        self.rank = int(rank)
        self.dims = tuple(int(f.shape[0]) for f in self.factors)
        if trees is not None:
            # Pre-built (cached) per-factor segment trees: the fused
            # sampled-dimtree kernel rebuilds a factor's tree only when that
            # factor is replaced, so repeated samplers over the same factors
            # skip both the tree build and the Gram products (the root node
            # of each tree *is* the factor Gram, summed leaf outer products).
            trees = list(trees)
            if len(trees) != len(self.modes):
                raise ParameterError(
                    f"expected {len(self.modes)} cached trees, got {len(trees)}"
                )
            for k, f, tree in zip(self.modes, self.factors, trees):
                if tree.n_rows != f.shape[0] or tree.rank != self.rank:
                    raise ParameterError(
                        f"cached tree for factor {k} has shape "
                        f"({tree.n_rows}, {tree.rank}), expected {f.shape}"
                    )
            self.grams = [tree.root_gram for tree in trees]
        else:
            self.grams = [f.T @ f for f in self.factors]
        gram = np.ones((rank, rank))
        for g in self.grams:
            gram = gram * g
        self.gram = gram
        self.gram_pinv = np.linalg.pinv(gram)
        self.total_mass = float(np.sum(self.gram_pinv * self.gram))
        if not self.total_mass > 0.0:
            raise ParameterError(
                "cannot build a leverage distribution from all-zero factors"
            )
        # suffix[t] = Hadamard product of the Grams of modes drawn after t.
        suffix = np.ones((rank, rank))
        self._weights: List[np.ndarray] = [None] * len(self.modes)
        for t in range(len(self.modes) - 1, -1, -1):
            self._weights[t] = self.gram_pinv * suffix
            suffix = suffix * self.grams[t]
        self.trees = (
            trees if trees is not None else [GramSegmentTree(f) for f in self.factors]
        )

    def conditional_weight(self, position: int) -> np.ndarray:
        """The weight matrix ``W_t`` of the ``position``-th conditional draw."""
        return self._weights[position]

    def draw_indices(self, n_draws: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n_draws`` row multi-indices (``n_draws x (N-1)``), vectorized.

        Consumes exactly one ``rng.random((n_draws, N-1))`` block, so the
        draw is reproducible from the generator state alone (the
        rank-consistent-seeding contract of the distributed kernel).
        """
        n_draws = check_positive_int(n_draws, "n_draws")
        observe_inc("treesample.draws", n_draws)
        u = rng.random((n_draws, len(self.modes)))
        h = np.ones((n_draws, self.rank))
        drawn = np.empty((n_draws, len(self.modes)), dtype=np.int64)
        for t, (tree, factor) in enumerate(zip(self.trees, self.factors)):
            idx = tree.batched_draw(self._weights[t], h, u[:, t])
            drawn[:, t] = idx
            h = h * factor[idx, :]
        return drawn

    def row_probabilities(self, indices: np.ndarray) -> np.ndarray:
        """Exact leverage probabilities of the rows at ``indices`` (``U x (N-1)``).

        ``p = z^T G^+ z / trace(G^+ G)`` per row — identical to the
        ``"leverage"`` strategy's values without touching the other ``J - U``
        rows.
        """
        indices = np.atleast_2d(np.asarray(indices, dtype=np.int64))
        rows = np.ones((indices.shape[0], self.rank))
        for t, factor in enumerate(self.factors):
            rows = rows * factor[indices[:, t], :]
        scores = np.einsum("ur,rs,us->u", rows, self.gram_pinv, rows)
        return np.clip(scores, 0.0, None) / self.total_mass

    def conditional_distribution(self, prefix: Sequence[int]) -> np.ndarray:
        """Normalized conditional distribution of the next mode's row index.

        Given drawn rows ``prefix`` for the first ``t = len(prefix)`` sampled
        modes, returns the length-``I_{k_t}`` probability vector
        ``q_i / sum q`` with ``q_i = (h * a_i)^T W_t (h * a_i)`` — the oracle
        the statistical tests factor the joint distribution against.
        """
        t = len(prefix)
        if not 0 <= t < len(self.modes):
            raise ParameterError(
                f"prefix length {t} outside the {len(self.modes)} sampled modes"
            )
        h = np.ones(self.rank)
        for s, i in enumerate(prefix):
            if not 0 <= int(i) < self.dims[s]:
                raise ParameterError(
                    f"prefix index {i} out of range for sampled mode {self.modes[s]}"
                )
            h = h * self.factors[s][int(i), :]
        conditioned = self.factors[t] * h[None, :]
        scores = np.einsum(
            "ir,rs,is->i", conditioned, self._weights[t], conditioned
        )
        scores = np.clip(scores, 0.0, None)
        total = float(scores.sum())
        if not total > 0.0:
            raise ParameterError(
                "conditional leverage distribution has zero mass for this prefix"
            )
        return scores / total


def tree_joint_distribution(
    factors: Sequence[Optional[np.ndarray]], mode: int
) -> np.ndarray:
    """Full length-``J`` row distribution the tree sampler draws from.

    Materializes the Khatri-Rao row block (this is the *test/experiment*
    oracle — the sampler itself never does) and evaluates the same quadratic
    form :meth:`KRPTreeSampler.row_probabilities` uses, so the returned
    vector is exactly the distribution of the tree draws and agrees with the
    ``"leverage"`` strategy to floating-point accuracy.
    """
    from repro.tensor.khatri_rao import khatri_rao_excluding

    sampler = KRPTreeSampler(factors, mode)
    krp = khatri_rao_excluding(factors, mode)
    scores = np.einsum("jr,rs,js->j", krp, sampler.gram_pinv, krp)
    return np.clip(scores, 0.0, None) / sampler.total_mass


def tree_descent_levels(extent: int) -> int:
    """Descent depth of a :class:`GramSegmentTree` over ``extent`` rows.

    Equals ``ceil(log2 extent)`` — the padded-power-of-two tree height the
    cost model charges per draw per mode.
    """
    if extent < 1:
        raise ParameterError("extent must be >= 1")
    return (int(extent) - 1).bit_length()
