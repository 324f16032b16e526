"""Dense CP-ALS with a pluggable MTTKRP kernel.

The alternating least squares algorithm (Section II-A of the paper) fixes all
factor matrices except one and solves the linear least-squares problem for
the free one via the normal equations:

    ``A^(n) <- MTTKRP(X, {A^(k)}, n) @ pinv( hadamard_{k != n} A^(k)T A^(k) )``

The MTTKRP dominates the cost; which kernel evaluates it is selectable so the
same driver exercises a registered kernel or a user-supplied (e.g. counted)
one, such as the matmul baseline.  A caller who names no kernel gets the
multi-sweep dimension tree (``kernel="msdt"``), and so does a caller who
names ``"auto"``.  The dimension tree (``"dimtree"``) shares partial
contractions across the modes of a sweep (Section VII), so it reads the
tensor twice per sweep instead of ``N`` times.  On a 3-way tensor with
``R`` at most every extent, the multi-sweep schedule also shares them
across sweeps: after the first sweep, which is the tree's, sweeps read
the tensor alternately twice and once.  Every other input runs the tree
unchanged.  ``"einsum"`` stays registered by name as the reference kernel
and is the ``on_fault`` fallback.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend.parallel import resolve_threads
from repro.core.blocked_mttkrp import blocked_mttkrp
from repro.core.dimtree import DimensionTreeKernel, MultiSweepTreeKernel
from repro.core.kernels import mttkrp
from repro.core.sweep_kernel import (
    PerCallKernel,
    SweepKernel,
    as_sweep_kernel,
    check_kernel_name,
)
from repro.cp.initialization import initialize_factors
from repro.exceptions import FaultError, ParameterError
from repro.observe.instrument import inc as observe_inc
from repro.observe.tracer import trace
from repro.resilience.checkpoint import CheckpointState, CheckpointStore
from repro.tensor.dense import as_ndarray
from repro.tensor.kruskal import KruskalTensor
from repro.utils.validation import check_positive_int, check_rank

#: Signature of a pluggable MTTKRP kernel: (tensor, factors, mode) -> (I_mode, R) array.
MTTKRPKernel = Callable[[np.ndarray, Sequence[Optional[np.ndarray]], int], np.ndarray]

#: Kernel names resolvable by :func:`cp_als` (``"sampled"``, ``"sampled-tree"``
#: and ``"sampled-dimtree"`` are registered lazily, all three as
#: :class:`~repro.core.sampled_dimtree.SampledDimtreeKernel` — see
#: :func:`_resolve_kernel`; ``"dimtree"`` is the sweep-aware dimension-tree
#: engine of :mod:`repro.core.dimtree`, and ``"msdt"``, the default, its
#: multi-sweep schedule on 3-way tensors; ``"auto"`` is a second name of the
#: default, bitwise ``"msdt"``; ``"einsum"`` is the reference kernel and the
#: ``on_fault`` fallback; ``"sampled-dimtree"`` is the fused sampled engine
#: of :mod:`repro.core.sampled_dimtree` that serves leverage draws from the
#: tree's cached partial contractions; and ``"blocked"`` is the
#: cache-blocked tiled-GEMM kernel of :mod:`repro.core.blocked_mttkrp`).
KERNEL_NAMES = (
    "einsum",
    "blocked",
    "auto",
    "msdt",
    "dimtree",
    "sampled",
    "sampled-tree",
    "sampled-dimtree",
)

#: Graceful-degradation policies for a poisoned (non-finite) MTTKRP output.
FAULT_POLICIES = ("raise", "retry", "degrade")


def _check_finite(name: str, array: np.ndarray) -> None:
    """Reject NaN/Inf inputs up front (they silently poison every sweep)."""
    if not np.all(np.isfinite(array)):
        raise ParameterError(f"{name} contains non-finite values (NaN or Inf)")


def _check_tolerance(value, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not value >= 0:
        raise ParameterError(f"{name} must be a non-negative number, got {value!r}")


def check_als_arguments(
    shape: Sequence[int],
    rank: int,
    *,
    n_iter_max: int,
    tol: float,
    init: Union[str, Sequence[np.ndarray]],
    threads: Optional[int],
) -> None:
    """Reject bad ALS driver arguments before any initialisation or kernel work.

    The one argument check of :func:`cp_als` and
    :func:`repro.cp.parallel_als.parallel_cp_als`: every value is checked
    whichever kernel the run would use, so an argument that a kernel
    ignores (``threads`` for ``"einsum"``) still fails with
    :class:`ParameterError` when it is invalid.  An explicit ``init`` must
    hold one finite ``(I_k, rank)`` matrix per mode.
    """
    check_positive_int(n_iter_max, "n_iter_max")
    _check_tolerance(tol, "tol")
    if threads is not None:
        resolve_threads(threads)
    if isinstance(init, str):
        return
    if len(init) != len(shape):
        raise ParameterError("explicit init must provide one factor matrix per mode")
    for mode, factor in enumerate(init):
        factor = np.asarray(factor)
        if factor.shape != (shape[mode], rank):
            raise ParameterError(
                f"init factor for mode {mode} must have shape "
                f"({shape[mode]}, {rank}), got {factor.shape}"
            )
        _check_finite(f"init factor for mode {mode}", factor)


def _solve_normal_equations(gram: np.ndarray, b: np.ndarray, rank: int) -> np.ndarray:
    """Solve the normal equations ``factor @ gram = b``, clean solve first.

    The historical unconditional ``1e-12`` ridge perturbed every factor at
    the regularizer's scale even when the Gram was perfectly conditioned.
    Now the escalation is: clean ``solve``; on ``LinAlgError`` or non-finite
    output, least squares (counted as ``als.solve.fallback``); only if that
    also fails, the ridge (counted as ``als.solve.ridge``).
    """
    try:
        factor = np.linalg.solve(gram.T, b.T).T
        if np.all(np.isfinite(factor)):
            return factor
    except np.linalg.LinAlgError:
        pass
    observe_inc("als.solve.fallback")
    try:
        factor = np.linalg.lstsq(gram.T, b.T, rcond=None)[0].T
        if np.all(np.isfinite(factor)):
            return factor
    except np.linalg.LinAlgError:
        pass
    observe_inc("als.solve.ridge")
    return np.linalg.solve(gram.T + 1e-12 * np.eye(rank), b.T).T


def _recover_mttkrp(
    sweep_kernel: SweepKernel,
    data: np.ndarray,
    factors: Sequence[np.ndarray],
    mode: int,
    on_fault: str,
) -> Tuple[np.ndarray, int]:
    """Apply the ``on_fault`` policy to a poisoned (non-finite) MTTKRP.

    Returns the recovered MTTKRP and the number of extra kernel evaluations
    performed.  ``"retry"`` invalidates the kernel's caches through its
    staleness authority and recomputes; if that cannot help (cache-less
    kernel, or the recompute is still poisoned) it degrades — like
    ``"degrade"`` — to the exact einsum kernel on the raw tensor.
    """
    observe_inc("fault.detected")
    if on_fault == "raise":
        raise FaultError(
            f"MTTKRP for mode {mode} produced non-finite values (poisoned "
            "kernel cache?); rerun with on_fault='retry' to recover"
        )
    extra_calls = 0
    with trace("recovery", mode=mode, policy=on_fault):
        observe_inc("recovery.attempt")
        if on_fault == "retry" and sweep_kernel.invalidate_caches():
            b = sweep_kernel.mttkrp(data, factors, mode)
            extra_calls += 1
            if np.all(np.isfinite(b)):
                observe_inc("recovery.recovered")
                return b, extra_calls
        # Graceful degradation: the exact einsum kernel on the raw tensor.
        b = mttkrp(data, factors, mode)
        extra_calls += 1
        if not np.all(np.isfinite(b)):
            raise FaultError(
                f"exact-kernel fallback for mode {mode} still produced "
                "non-finite values; the tensor or factors themselves are corrupted"
            )
        observe_inc("recovery.degraded")
    return b, extra_calls


@dataclass
class CPALSResult:
    """Outcome of a CP-ALS run.

    Attributes
    ----------
    model:
        The fitted :class:`~repro.tensor.kruskal.KruskalTensor` (normalised).
    fits:
        Fit value ``1 - ||X - X_hat|| / ||X||`` after each iteration, computed
        from the sweep's last MTTKRP.  Under a kernel that is not
        :attr:`~repro.core.sweep_kernel.SweepKernel.exact` (the sampled
        kernels) that MTTKRP is an estimate, and so is each fit; use
        ``model.fit(tensor)`` for the exact fit.
    n_iterations:
        Number of completed ALS sweeps.
    converged:
        Whether the fit change dropped below the tolerance before ``max_iter``.
        Always ``False`` under a kernel that is not exact: an estimated fit
        never stops the run, so it completes ``n_iter_max`` sweeps.
    mttkrp_calls:
        Total number of MTTKRP invocations performed.
    """

    model: KruskalTensor
    fits: List[float] = field(default_factory=list)
    n_iterations: int = 0
    converged: bool = False
    mttkrp_calls: int = 0

    @property
    def final_fit(self) -> float:
        """Fit after the last iteration (0.0 if no iteration ran)."""
        return self.fits[-1] if self.fits else 0.0


def _kernel_seed(
    seed: Union[None, int, np.random.Generator],
) -> Union[None, np.random.Generator, np.random.SeedSequence]:
    """Independent stream for a sampled kernel's draws (not the init's bits)."""
    if seed is None or isinstance(seed, np.random.Generator):
        return seed
    return np.random.SeedSequence(seed).spawn(1)[0]


def _resolve_kernel(
    kernel: Union[str, MTTKRPKernel, SweepKernel],
    seed: Union[None, int, np.random.Generator] = None,
    threads: Optional[int] = None,
) -> SweepKernel:
    if isinstance(kernel, SweepKernel) or callable(kernel):
        return as_sweep_kernel(kernel)
    check_kernel_name(kernel, KERNEL_NAMES)
    if kernel in ("msdt", "auto", "dimtree"):
        # A fresh engine per run: the tree binds to the run's tensor on the
        # first call and caches partial contractions across the whole run.
        return DimensionTreeKernel() if kernel == "dimtree" else MultiSweepTreeKernel()
    if kernel.startswith("sampled"):
        # One class, built fresh per run so that an explicit seed makes the
        # whole ALS run reproducible (imported lazily: its draws come from
        # repro.sketch, which layers on this driver).  "sampled-dimtree"
        # serves tree-leverage draws from the dimension tree's cached
        # partial contractions; "sampled" and "sampled-tree" run with
        # cache=False and resample the raw tensor on every call, from the
        # product-of-factor-leverage distribution and from the exact
        # Khatri-Rao leverage distribution via the segment-tree sampler.
        from repro.core.sampled_dimtree import SampledDimtreeKernel

        return SampledDimtreeKernel(
            distribution="product-leverage" if kernel == "sampled" else "tree-leverage",
            seed=_kernel_seed(seed),
            cache=kernel == "sampled-dimtree",
        )
    if kernel == "blocked":
        return PerCallKernel(
            lambda tensor, factors, mode: blocked_mttkrp(
                tensor, factors, mode, threads=threads
            )
        )
    return PerCallKernel(mttkrp)


def cp_als(
    tensor,
    rank: int,
    *,
    n_iter_max: int = 50,
    tol: float = 1e-7,
    init: Union[str, Sequence[np.ndarray]] = "random",
    seed: Union[None, int, np.random.Generator] = None,
    kernel: Union[str, MTTKRPKernel] = "msdt",
    threads: Optional[int] = None,
    on_fault: str = "raise",
    checkpoint_store: Optional[CheckpointStore] = None,
    resume_from: Optional[CheckpointState] = None,
) -> CPALSResult:
    """Fit a rank-``R`` CP decomposition with alternating least squares.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor.
    rank:
        Target CP rank ``R``.
    n_iter_max:
        Maximum number of ALS sweeps (each sweep updates every mode once).
    tol:
        Convergence tolerance on the change in fit between sweeps.  It
        applies only when the kernel is exact
        (:attr:`~repro.core.sweep_kernel.SweepKernel.exact`); a sampled
        kernel's fits are estimates, so its run goes to ``n_iter_max``.
    init:
        ``"random"``, ``"svd"``, or an explicit list of initial factor
        matrices.
    seed:
        Seed for random initialisation and for the draws of the sampled
        registry kernels.  An int gives the draws a separate stream spawned
        from it, so they do not reuse the bits the initialisation reads; a
        :class:`numpy.random.Generator` is one stream that the
        initialisation reads first and the draws continue.
    kernel:
        Which MTTKRP kernel to use: a name from :data:`KERNEL_NAMES`, a
        per-call callable, or a :class:`~repro.core.sweep_kernel.SweepKernel`
        instance (the driver announces sweep starts and factor updates to
        sweep-aware kernels).  The default ``"msdt"``
        (:class:`~repro.core.dimtree.MultiSweepTreeKernel`, also named
        ``"auto"``) contracts a 3-way tensor with ``R`` at most every
        extent once per two mode updates, across sweep boundaries, and
        runs every other input as ``"dimtree"``
        (:class:`~repro.core.dimtree.DimensionTreeKernel`), which caches
        partial contractions across the sweep.  A checkpoint of either
        carries the cached partials; ``"einsum"`` is the reference
        kernel.  Residual gating of the cached partials (see
        :class:`~repro.core.dimtree.FactorGate`) is an option of a kernel
        instance, e.g. ``DimensionTreeKernel(invalidation="residual")``.
    threads:
        Thread count of the ``"blocked"`` kernel's tile tasks on the shared
        thread executor (``None`` consults the ``REPRO_THREADS`` environment
        variable, default 1).  Results are bitwise identical for every
        value — the blocked kernel parallelises only over disjoint
        output-row tiles.  Ignored by the other kernels.
    on_fault:
        Policy for a poisoned (non-finite) MTTKRP output
        (:data:`FAULT_POLICIES`): ``"raise"`` (default) raises
        :class:`~repro.exceptions.FaultError`; ``"retry"`` invalidates the
        kernel's caches through its staleness authority and recomputes,
        degrading to the exact einsum kernel if that cannot help;
        ``"degrade"`` goes straight to the exact kernel.
    checkpoint_store:
        When given, a :class:`~repro.resilience.checkpoint.CheckpointState`
        is saved into it after every ``checkpoint_store.every``-th completed
        sweep (factors, fit history, and the kernel's full cache/RNG state).
    resume_from:
        A previously captured checkpoint: the run resumes at sweep
        ``resume_from.iteration + 1``, bitwise identical to the uninterrupted
        run for every registry kernel and for a fresh kernel instance built
        as the original run's was (say
        ``SampledDimtreeKernel(64, cache=False, seed=5)``).  The resume
        takes one deep copy of the checkpoint, and the kernel adopts its
        state from that copy; a checkpoint written by another kernel class,
        or by a distributed kernel on another grid, raises
        :class:`~repro.exceptions.ParameterError`.  The ``init`` and
        ``seed`` of the original run should be passed unchanged (they are
        ignored for state, but seed still feeds a fresh sampled kernel
        unless the kernel state overrides it — which the checkpoint does).

    Returns
    -------
    CPALSResult
    """
    data = as_ndarray(tensor)
    rank = check_rank(rank)
    if data.ndim < 2:
        raise ParameterError("CP-ALS requires a tensor with at least 2 modes")
    if on_fault not in FAULT_POLICIES:
        raise ParameterError(
            f"unknown on_fault policy {on_fault!r}; use one of {FAULT_POLICIES}"
        )
    check_als_arguments(
        data.shape,
        rank,
        n_iter_max=n_iter_max,
        tol=tol,
        init=init,
        threads=threads,
    )
    # One read of the tensor before sweep 1: its norm is NaN or Inf whenever
    # an entry is, and only then does the full scan run (for the error).
    norm_x = float(np.linalg.norm(data.ravel(order="K")))
    if not np.isfinite(norm_x):
        _check_finite("tensor", data)
    sweep_kernel = _resolve_kernel(kernel, seed, threads)

    if isinstance(init, str):
        factors = initialize_factors(data, rank, method=init, seed=seed)
    else:
        factors = [np.asarray(f, dtype=np.float64).copy() for f in init]

    weights = np.ones(rank, dtype=np.float64)
    grams = [f.T @ f for f in factors]

    fits: List[float] = []
    converged = False
    mttkrp_calls = 0
    previous_fit = -np.inf
    last_mode = data.ndim - 1

    start_iteration = 0
    if resume_from is not None:
        resume_from.check_problem(data.shape, rank)
        ckpt = resume_from.copy()
        factors = [np.asarray(f, dtype=np.float64) for f in ckpt.factors]
        weights = np.asarray(ckpt.weights, dtype=np.float64)
        # Recomputed, not stored: ``f.T @ f`` of bitwise-equal factors is
        # bitwise equal, so the Gram caches need no checkpoint entries.
        grams = [f.T @ f for f in factors]
        fits = list(ckpt.fits)
        previous_fit = ckpt.previous_fit
        mttkrp_calls = ckpt.mttkrp_calls
        start_iteration = int(ckpt.iteration)
        sweep_kernel.restore_state(ckpt.kernel_state)
        observe_inc("checkpoint.restored")

    iteration = start_iteration
    for iteration in range(start_iteration + 1, n_iter_max + 1):
        final_mttkrp = None
        sweep_kernel.begin_sweep(iteration)
        with trace("sweep", iteration=iteration):
            # Per-sweep Hadamard cache: ``suffix[m]`` is the product of the
            # pre-sweep Grams of modes ``m..N-1``; ``prefix`` accumulates the
            # already-updated Grams of modes ``0..mode-1``.  The normal-equation
            # matrix for ``mode`` is ``prefix ∘ suffix[mode + 1]``, so only the
            # Gram of the factor just updated is folded in per mode instead of
            # re-multiplying all ``N - 1`` operands.
            suffix: List[np.ndarray] = [None] * (data.ndim + 1)  # type: ignore[list-item]
            suffix[data.ndim] = np.ones((rank, rank), dtype=np.float64)
            for m in range(data.ndim - 1, -1, -1):
                suffix[m] = grams[m] * suffix[m + 1]
            prefix = np.ones((rank, rank), dtype=np.float64)
            for mode in range(data.ndim):
                with trace("mode", mode=mode):
                    b = sweep_kernel.mttkrp(data, factors, mode)
                    mttkrp_calls += 1
                    if not np.all(np.isfinite(b)):
                        b, extra = _recover_mttkrp(
                            sweep_kernel, data, factors, mode, on_fault
                        )
                        mttkrp_calls += extra
                    gram = prefix * suffix[mode + 1]
                    factor = _solve_normal_equations(gram, b, rank)
                    # Column normalisation keeps the factors well-scaled across sweeps.
                    norms = np.linalg.norm(factor, axis=0)
                    norms = np.where(norms > 0, norms, 1.0)
                    factor = factor / norms[None, :]
                    weights = norms
                    factors[mode] = factor
                    grams[mode] = factor.T @ factor
                    sweep_kernel.factor_updated(mode, factor)
                    prefix = prefix * grams[mode]
                    if mode == last_mode:
                        final_mttkrp = b

            # Efficient fit evaluation (Kolda & Bader, Section 3.4): using the last
            # MTTKRP avoids reconstructing the dense tensor; ``prefix`` now holds
            # the Hadamard product of all updated Grams.
            norm_model_sq = float(weights @ prefix @ weights)
            inner = float(np.sum(final_mttkrp * (factors[last_mode] * weights[None, :])))
            residual_sq = max(norm_x**2 + norm_model_sq - 2.0 * inner, 0.0)
            fit = 1.0 - np.sqrt(residual_sq) / norm_x if norm_x > 0 else 1.0
            fits.append(float(fit))

        if sweep_kernel.exact and abs(fit - previous_fit) < tol:
            converged = True
            break
        previous_fit = fit

        if checkpoint_store is not None and checkpoint_store.wants(iteration):
            checkpoint_store.save(
                CheckpointState(
                    iteration=iteration,
                    factors=factors,
                    weights=weights,
                    fits=fits,
                    previous_fit=float(previous_fit),
                    mttkrp_calls=mttkrp_calls,
                    kernel_state=sweep_kernel.capture_state(),
                    shape=tuple(data.shape),
                    rank=rank,
                )
            )
            observe_inc("checkpoint.saved")

    model = KruskalTensor([f.copy() for f in factors], weights.copy()).arrange()
    return CPALSResult(
        model=model,
        fits=fits,
        n_iterations=iteration,
        converged=converged,
        mttkrp_calls=mttkrp_calls,
    )
