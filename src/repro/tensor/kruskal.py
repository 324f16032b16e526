"""Kruskal (CP-format) tensors: a weight vector plus one factor matrix per mode.

A rank-``R`` CP decomposition represents the tensor
``X ~ sum_r lambda_r a^(1)_r o ... o a^(N)_r`` (Eq. (1) of the paper).  The
:class:`KruskalTensor` class stores the factors and weights, reconstructs the
dense tensor, and evaluates the fit of the approximation — everything the
CP-ALS driver in :mod:`repro.cp` needs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.tensor.dense import DenseTensor, as_ndarray
from repro.tensor.khatri_rao import hadamard_all, khatri_rao_excluding


class KruskalTensor:
    """CP-format tensor ``[[weights; A_0, ..., A_{N-1}]]``.

    Parameters
    ----------
    factors:
        One factor matrix per mode; all must share the same column count ``R``.
    weights:
        Optional length-``R`` vector of component weights (defaults to ones).
    """

    __slots__ = ("factors", "weights")

    def __init__(self, factors: Sequence[np.ndarray], weights: Optional[np.ndarray] = None):
        if len(factors) < 2:
            raise ShapeError("KruskalTensor requires at least two modes")
        mats: List[np.ndarray] = [np.asarray(f, dtype=np.float64) for f in factors]
        rank = mats[0].shape[1] if mats[0].ndim == 2 else None
        for k, m in enumerate(mats):
            if m.ndim != 2:
                raise ShapeError(f"factor {k} must be 2-D, got ndim={m.ndim}")
            if m.shape[1] != rank:
                raise ShapeError(
                    f"all factors must have the same number of columns; factor {k} "
                    f"has {m.shape[1]}, expected {rank}"
                )
        if weights is None:
            weights = np.ones(rank, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (rank,):
            raise ShapeError(f"weights must have shape ({rank},), got {weights.shape}")
        self.factors = mats
        self.weights = weights

    # -- basic properties --------------------------------------------------
    @property
    def rank(self) -> int:
        """Number of rank-one components ``R``."""
        return int(self.factors[0].shape[1])

    @property
    def ndim(self) -> int:
        """Number of modes ``N``."""
        return len(self.factors)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the represented tensor."""
        return tuple(int(f.shape[0]) for f in self.factors)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KruskalTensor(shape={self.shape}, rank={self.rank})"

    def copy(self) -> "KruskalTensor":
        """Deep copy."""
        return KruskalTensor([f.copy() for f in self.factors], self.weights.copy())

    # -- reconstruction and norms -------------------------------------------
    def full(self) -> DenseTensor:
        """Reconstruct the dense tensor represented by this Kruskal tensor.

        The data is C-contiguous, written by one GEMM.  The Khatri-Rao
        product keeps the reverse mode order of the mode-0 MTTKRP, whose
        products fix the rounding of every entry; only its rows are permuted
        (a copy of ``I / I_0 * R`` words) to run over modes ``1..N-1`` with
        the last fastest, so the GEMM's output is the tensor in C order.
        """
        shape = self.shape
        krp = khatri_rao_excluding(self.factors, 0)
        n_rest = len(shape) - 1
        krp = (
            krp.reshape(shape[:0:-1] + (self.rank,))
            .transpose(tuple(range(n_rest - 1, -1, -1)) + (n_rest,))
            .reshape(-1, self.rank)
        )
        data = (self.factors[0] * self.weights[None, :]) @ krp.T
        return DenseTensor(data.reshape(shape))

    def norm(self) -> float:
        """Frobenius norm, computed without forming the dense tensor.

        Uses ``||X||^2 = w^T (circ_k A_k^T A_k) w`` where ``circ`` is the
        Hadamard product of the factor Gram matrices.
        """
        gram = hadamard_all([f.T @ f for f in self.factors])
        value = float(self.weights @ gram @ self.weights)
        return float(np.sqrt(max(value, 0.0)))

    def inner(self, tensor) -> float:
        """Inner product ``<X, T>`` with a dense tensor, via an MTTKRP-free formula.

        ``<X, T> = sum_r w_r * prod-free``: computed as the dot of the mode-0
        factor against the mode-0 MTTKRP of ``T`` would require MTTKRP; to keep
        this module independent of :mod:`repro.core` we simply form the dense
        reconstruction when the tensor is small.  CP-ALS uses a cheaper formula
        based on the last MTTKRP result (see :mod:`repro.cp.als`).
        """
        dense = self.full().data
        other = as_ndarray(tensor)
        if other.shape != dense.shape:
            raise ShapeError(f"shape mismatch: {other.shape} vs {dense.shape}")
        return float(np.tensordot(dense, other, axes=dense.ndim))

    def fit(self, tensor) -> float:
        """Fit ``1 - ||T - X|| / ||T||`` of this CP model to a dense tensor."""
        other = as_ndarray(tensor)
        norm_t = float(np.linalg.norm(other.ravel()))
        if norm_t == 0.0:
            return 1.0 if self.norm() == 0.0 else 0.0
        residual = float(np.linalg.norm((other - self.full().data).ravel()))
        return 1.0 - residual / norm_t

    # -- normalisation -------------------------------------------------------
    def normalize(self) -> "KruskalTensor":
        """Return an equivalent Kruskal tensor with unit-norm factor columns.

        The column norms are absorbed into the weights.  Columns that are
        exactly zero are left untouched (their weight becomes zero).
        """
        new_factors = []
        weights = self.weights.copy()
        for f in self.factors:
            norms = np.linalg.norm(f, axis=0)
            safe = np.where(norms > 0, norms, 1.0)
            new_factors.append(f / safe[None, :])
            weights = weights * norms
        return KruskalTensor(new_factors, weights)

    def arrange(self) -> "KruskalTensor":
        """Normalise and sort components by decreasing weight magnitude."""
        normalized = self.normalize()
        order = np.argsort(-np.abs(normalized.weights))
        factors = [f[:, order] for f in normalized.factors]
        return KruskalTensor(factors, normalized.weights[order])
