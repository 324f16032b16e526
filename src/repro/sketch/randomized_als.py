"""Sketched CP-ALS: the CP-ALS driver running on the sampled MTTKRP kernel.

Randomized CP-ALS (CP-ARLS-LEV in Bharadwaj et al., 2023) replaces every
MTTKRP inside the ALS sweep by the sampled estimator, resampling on each
invocation so successive sweeps see independent draws.  Rather than forking
the driver, this module layers on :func:`repro.cp.als.cp_als` with a sampled
kernel closure — the sweep structure, normalisation, and fit bookkeeping are
shared with the exact path, so sampled-vs-exact comparisons isolate the
kernel.

Because the per-sweep fit inside the sketched run is itself estimated from a
sampled MTTKRP, the driver finishes by computing the *exact* fit of the
returned model; when the caller sets ``min_fit`` and the sketched run falls
short (or produced non-finite factors), the exact-solve fallback polishes the
sketched factors with a few exact-kernel sweeps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.cp.als import CPALSResult, cp_als
from repro.exceptions import ParameterError
from repro.sketch.sampled_mttkrp import default_sample_count, make_sampled_kernel
from repro.sketch.sampling import SeedLike, _as_generator, check_distribution
from repro.tensor.dense import as_ndarray
from repro.tensor.kruskal import KruskalTensor
from repro.utils.validation import check_positive_int, check_rank


@dataclass
class RandomizedCPALSResult:
    """Outcome of a randomized CP-ALS run.

    Attributes
    ----------
    model:
        The final fitted :class:`~repro.tensor.kruskal.KruskalTensor` (from
        the fallback when it ran, otherwise from the sketched run).
    sketched:
        The :class:`~repro.cp.als.CPALSResult` of the sketched run (its
        ``fits`` are sampled estimates).
    exact_fit:
        Exact fit ``1 - ||X - X_hat|| / ||X||`` of ``model``.
    used_fallback:
        Whether the exact-solve fallback ran.
    fallback:
        The fallback's :class:`~repro.cp.als.CPALSResult` (``None`` when the
        sketched run sufficed).
    n_samples:
        Draws per MTTKRP invocation.
    distribution:
        Sampling distribution used by the sketched kernel.
    """

    model: KruskalTensor
    sketched: CPALSResult
    exact_fit: float
    used_fallback: bool
    fallback: Optional[CPALSResult]
    n_samples: int
    distribution: str

    @property
    def n_iterations(self) -> int:
        """Total ALS sweeps across the sketched run and the fallback."""
        return self.sketched.n_iterations + (
            self.fallback.n_iterations if self.fallback is not None else 0
        )

    @property
    def mttkrp_calls(self) -> int:
        """Total MTTKRP invocations (sampled plus exact fallback)."""
        return self.sketched.mttkrp_calls + (
            self.fallback.mttkrp_calls if self.fallback is not None else 0
        )


def _check_randomized_options(
    n_samples: Optional[int], min_fit: Optional[float], fallback_sweeps: int
) -> Tuple[Optional[int], Optional[float], int]:
    """Validate the randomized drivers' sampling and fallback options.

    Both drivers call this before any work, so a bad value fails up front
    instead of after the sketched run (or, for ``min_fit``, never).
    """
    if n_samples is not None:
        n_samples = check_positive_int(n_samples, "n_samples")
    if min_fit is not None:
        if isinstance(min_fit, bool) or not isinstance(min_fit, numbers.Real):
            raise ParameterError(f"min_fit must be None or a real number, got {min_fit!r}")
        if not math.isfinite(min_fit):
            raise ParameterError(f"min_fit must be finite, got {min_fit!r}")
        min_fit = float(min_fit)
    fallback_sweeps = check_positive_int(fallback_sweeps, "fallback_sweeps", minimum=0)
    return n_samples, min_fit, fallback_sweeps


def _weighted_init(model: KruskalTensor) -> list:
    """Factor matrices with the weights folded into mode 0, for warm-starting."""
    factors = [f.copy() for f in model.factors]
    factors[0] = factors[0] * model.weights[None, :]
    return factors


def randomized_cp_als(
    tensor,
    rank: int,
    *,
    n_samples: Optional[int] = None,
    distribution: str = "product-leverage",
    n_iter_max: int = 50,
    tol: float = 1e-6,
    init: Union[str, Sequence[np.ndarray]] = "random",
    seed: SeedLike = None,
    min_fit: Optional[float] = None,
    fallback_sweeps: int = 10,
    warn_on_nonconvergence: bool = False,
) -> RandomizedCPALSResult:
    """Fit a CP decomposition with sampled MTTKRPs and an exact fallback.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor.
    rank:
        Target CP rank ``R``.
    n_samples:
        Draws per MTTKRP invocation, a positive int (default
        :func:`~repro.sketch.sampled_mttkrp.default_sample_count`).
    distribution:
        Sampling distribution for the kernel (``"product-leverage"`` by
        default — the only one whose setup cost is per-factor, as in
        CP-ARLS-LEV).
    n_iter_max, tol, init:
        Passed through to :func:`repro.cp.als.cp_als` for the sketched run.
    seed:
        Seed or generator driving initialisation *and* all resampling.
    min_fit:
        ``None`` or a finite real.  When set, the exact fit of the sketched
        model is required to reach this value; otherwise the exact-solve
        fallback polishes the model with up to ``fallback_sweeps`` ALS
        sweeps of the default exact kernel of :func:`~repro.cp.als.cp_als`.
        The fallback also triggers on non-finite sketched results regardless
        of the threshold.
    fallback_sweeps:
        Maximum exact sweeps the fallback may spend, a non-negative int
        (0 never falls back).
    warn_on_nonconvergence:
        Forwarded to the underlying driver.

    Returns
    -------
    RandomizedCPALSResult
    """
    data = as_ndarray(tensor)
    rank = check_rank(rank)
    check_distribution(distribution)
    n_samples, min_fit, fallback_sweeps = _check_randomized_options(
        n_samples, min_fit, fallback_sweeps
    )
    if n_samples is None:
        n_samples = default_sample_count(rank)
    rng = _as_generator(seed)

    kernel = make_sampled_kernel(n_samples, distribution=distribution, seed=rng)
    sketched = cp_als(
        data,
        rank,
        n_iter_max=n_iter_max,
        tol=tol,
        init=init,
        seed=rng,
        kernel=kernel,
        warn_on_nonconvergence=warn_on_nonconvergence,
    )

    model = sketched.model
    finite = all(np.all(np.isfinite(f)) for f in model.factors) and np.all(
        np.isfinite(model.weights)
    )
    exact_fit = model.fit(data) if finite else -np.inf

    fallback_result: Optional[CPALSResult] = None
    needs_fallback = (not finite) or (min_fit is not None and exact_fit < min_fit)
    if needs_fallback and fallback_sweeps > 0:
        fallback_init: Union[str, Sequence[np.ndarray]]
        fallback_init = _weighted_init(model) if finite else "random"
        fallback_result = cp_als(
            data,
            rank,
            n_iter_max=fallback_sweeps,
            tol=tol,
            init=fallback_init,
            seed=rng,
            warn_on_nonconvergence=warn_on_nonconvergence,
        )
        model = fallback_result.model
        exact_fit = model.fit(data)

    return RandomizedCPALSResult(
        model=model,
        sketched=sketched,
        exact_fit=float(exact_fit),
        used_fallback=fallback_result is not None,
        fallback=fallback_result,
        n_samples=int(n_samples),
        distribution=distribution,
    )
