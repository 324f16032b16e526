"""Seeded random generators for tensors, factor matrices, and CP test problems.

All generators take an explicit ``seed`` (or :class:`numpy.random.Generator`)
so experiments and tests are reproducible; nothing in the package touches the
global numpy random state.
"""

from __future__ import annotations

import math
import numbers
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ParameterError
from repro.tensor.dense import DenseTensor
from repro.tensor.kruskal import KruskalTensor
from repro.utils.validation import check_rank, check_shape

SeedLike = Union[None, int, np.random.Generator]


def _rng(seed: SeedLike) -> np.random.Generator:
    """Normalise a seed-like argument into a :class:`numpy.random.Generator`."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_tensor(shape: Sequence[int], *, seed: SeedLike = None, distribution: str = "normal") -> DenseTensor:
    """Dense tensor with i.i.d. random entries.

    Parameters
    ----------
    shape:
        Tensor dimensions.
    seed:
        Seed or generator for reproducibility.
    distribution:
        ``"normal"`` (standard normal) or ``"uniform"`` (uniform on [0, 1)).
    """
    shape = check_shape(shape)
    rng = _rng(seed)
    if distribution == "normal":
        data = rng.standard_normal(shape)
    elif distribution == "uniform":
        data = rng.random(shape)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    return DenseTensor(data)


def random_factors(
    shape: Sequence[int], rank: int, *, seed: SeedLike = None, nonnegative: bool = False
) -> List[np.ndarray]:
    """One random factor matrix per mode, each of shape ``(I_k, R)``."""
    shape = check_shape(shape)
    rank = check_rank(rank)
    rng = _rng(seed)
    factors = []
    for dim in shape:
        if nonnegative:
            factors.append(rng.random((dim, rank)))
        else:
            factors.append(rng.standard_normal((dim, rank)))
    return factors


def random_kruskal_tensor(
    shape: Sequence[int],
    rank: int,
    *,
    seed: SeedLike = None,
    nonnegative: bool = False,
    weights: Optional[np.ndarray] = None,
) -> KruskalTensor:
    """Random Kruskal tensor (random factors, optionally supplied weights)."""
    factors = random_factors(shape, rank, seed=seed, nonnegative=nonnegative)
    return KruskalTensor(factors, weights)


def random_low_rank_tensor(
    shape: Sequence[int], rank: int, *, seed: SeedLike = None
) -> DenseTensor:
    """Dense tensor that is *exactly* rank ``rank`` (the CP-ALS recovery target).

    The data is C-contiguous, the layout the kernels read fastest, as
    :meth:`~repro.tensor.kruskal.KruskalTensor.full` writes it.
    """
    return random_kruskal_tensor(shape, rank, seed=seed).full()


def noisy_low_rank_tensor(
    shape: Sequence[int],
    rank: int,
    *,
    noise_level: float = 1e-2,
    seed: SeedLike = None,
) -> DenseTensor:
    """Exactly low-rank tensor plus scaled Gaussian noise.

    The noise tensor is scaled so that ``||noise|| = noise_level * ||signal||``,
    which is the customary way of specifying the signal-to-noise ratio for CP
    recovery experiments.  A ``noise_level`` that is not a finite,
    non-negative real number (a bool included) raises
    :class:`~repro.exceptions.ParameterError` before any draw.

    The data is C-contiguous.  The noise is scaled in place and the signal
    added into it, so at most two tensor-sized arrays, the signal and the
    noise, are alive at once.
    """
    if (
        isinstance(noise_level, bool)
        or not isinstance(noise_level, numbers.Real)
        or not (math.isfinite(noise_level) and noise_level >= 0)
    ):
        raise ParameterError(
            f"noise_level must be a finite non-negative number, got {noise_level!r}"
        )
    rng = _rng(seed)
    signal = random_low_rank_tensor(shape, rank, seed=rng).data
    noise = rng.standard_normal(signal.shape)
    noise_norm = np.linalg.norm(noise.ravel())
    signal_norm = np.linalg.norm(signal.ravel())
    if noise_norm > 0 and signal_norm > 0:
        noise *= noise_level * signal_norm / noise_norm
    noise += signal
    return DenseTensor(noise)
