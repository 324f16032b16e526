"""Sweep-aware MTTKRP kernel protocol shared by the CP-ALS drivers.

CP-ALS invokes one MTTKRP per mode per sweep, and between invocations it
*updates* the factor matrix of the mode just solved.  A plain per-call kernel
(``(tensor, factors, mode) -> B``) cannot exploit that structure; a
*sweep-aware* kernel can: the drivers announce the start of every sweep and
every factor update, so a kernel may cache work across mode updates — the
dimension-tree engine of :mod:`repro.core.dimtree` caches partial
contractions, the distributed kernel of :mod:`repro.parallel.dimtree` caches
gathered factor blocks.

The protocol is deliberately tiny:

* :meth:`SweepKernel.mttkrp` — compute the mode-``n`` MTTKRP (required);
* :meth:`SweepKernel.begin_sweep` — a new ALS sweep starts (optional hook);
* :meth:`SweepKernel.factor_updated` — the driver replaced one factor matrix
  (optional hook; kernels that detect staleness by array identity, as both
  dimension-tree kernels do, may ignore it).

Existing per-call kernels are adapted with :class:`PerCallKernel` /
:func:`as_sweep_kernel`, so every kernel the drivers see speaks the same
protocol.  The module also hosts :func:`check_kernel_name`, the single
kernel-registry validator shared by :func:`repro.cp.als.cp_als` and
:func:`repro.cp.parallel_als.parallel_cp_als`.
"""

from __future__ import annotations

import copy
from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import ParameterError

#: Signature of a per-call MTTKRP kernel: ``(tensor, factors, mode) -> B``.
MTTKRPCallable = Callable[[np.ndarray, Sequence[Optional[np.ndarray]], int], np.ndarray]


class SweepKernel:
    """Base class of the sweep-aware MTTKRP kernel protocol.

    Subclasses must implement :meth:`mttkrp`; the sweep hooks default to
    no-ops so per-call kernels adapt trivially.  Instances are also directly
    callable with the historical ``(tensor, factors, mode)`` signature.
    """

    #: Whether :meth:`mttkrp` returns the exact MTTKRP.  The sampled kernels
    #: set it to ``False``: the fit ``cp_als`` derives from an estimated
    #: MTTKRP is itself an estimate, so ``cp_als`` never stops on it.
    exact: bool = True

    def begin_sweep(self, iteration: int) -> None:  # noqa: B027 - optional hook
        """Hook: ALS sweep ``iteration`` (1-based) is about to start."""

    def factor_updated(self, mode: int, factor: np.ndarray) -> None:  # noqa: B027
        """Hook: the driver replaced the factor matrix of ``mode``."""

    def mttkrp(
        self, tensor, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> np.ndarray:
        """Compute the mode-``mode`` MTTKRP ``B`` of shape ``(I_mode, R)``."""
        raise NotImplementedError

    # -- checkpoint/restore protocol (ISSUE 10) ------------------------------
    def capture_state(self) -> Optional[dict]:
        """Snapshot of every cross-call state the kernel holds, or ``None``.

        The contract with :meth:`restore_state`: a fresh kernel instance
        (same constructor arguments) restored from this snapshot serves the
        remaining ALS sweeps *bitwise identical* to this instance — cached
        partials, staleness versions, RNG bit-stream position, everything.
        Stateless kernels return ``None`` (the default).
        """
        return None

    def restore_state(self, state: Optional[dict]) -> None:  # noqa: B027
        """Adopt a :meth:`capture_state` snapshot (no-op for stateless kernels).

        Kernels whose caches key staleness on factor *identity* apply the
        snapshot lazily inside the next :meth:`mttkrp` call, rebinding their
        gate to the resumed driver's factor objects so the restored version
        stamps keep producing cache hits.
        """

    def invalidate_caches(self) -> bool:
        """Drop every cached/derived value (graceful-degradation hook).

        Called by the drivers' ``on_fault="retry"`` policy when a served
        MTTKRP looks poisoned (non-finite): the kernel must route the
        invalidation through its staleness authority (the
        :class:`~repro.core.dimtree.FactorGate` for the tree kernels) so
        every dependent cache — partials, sampler trees, gathered blocks —
        drops together.  Returns whether anything was invalidated (``False``
        for cache-less kernels, where a retry cannot change the answer).
        """
        return False

    def __call__(
        self, tensor, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> np.ndarray:
        return self.mttkrp(tensor, factors, mode)


class PerCallKernel(SweepKernel):
    """Adapter presenting a per-call kernel under the sweep-aware protocol.

    The wrapped callable is re-invoked from scratch on every call (the
    historical behaviour of every kernel before the protocol existed); the
    sweep hooks are no-ops.  When the callable owns a
    :class:`numpy.random.Generator` (the sampled kernels), pass it as
    ``rng`` so checkpoint/restore can capture the bit-stream position — the
    only cross-call state a per-call kernel can have.  The adapter is
    :attr:`~SweepKernel.exact` unless the callable carries ``exact = False``,
    as the sampled closures do.
    """

    def __init__(self, fn: MTTKRPCallable, *, rng: Optional[np.random.Generator] = None) -> None:
        if not callable(fn):
            raise ParameterError("PerCallKernel requires a callable MTTKRP kernel")
        self.fn = fn
        self.rng = rng
        self.exact = getattr(fn, "exact", True)

    def mttkrp(
        self, tensor, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> np.ndarray:
        return self.fn(tensor, factors, mode)

    def capture_state(self) -> Optional[dict]:
        if self.rng is None:
            return None
        return {"kind": "per-call", "rng": copy.deepcopy(self.rng.bit_generator.state)}

    def restore_state(self, state: Optional[dict]) -> None:
        if state is None:
            return
        if self.rng is None:
            raise ParameterError(
                "cannot restore an RNG state into a PerCallKernel built without rng"
            )
        self.rng.bit_generator.state = copy.deepcopy(state["rng"])


def as_sweep_kernel(kernel) -> SweepKernel:
    """Coerce a kernel to the sweep-aware protocol.

    :class:`SweepKernel` instances pass through; any other callable is wrapped
    in a :class:`PerCallKernel`, handed the callable's ``rng`` attribute when
    it has one (the closures of
    :func:`repro.sketch.sampled_mttkrp.make_sampled_kernel`), so a checkpoint
    captures the draw stream's position, and marked inexact when the callable
    carries ``exact = False``.
    """
    if isinstance(kernel, SweepKernel):
        return kernel
    if callable(kernel):
        return PerCallKernel(kernel, rng=getattr(kernel, "rng", None))
    raise ParameterError(f"not an MTTKRP kernel: {kernel!r}")


def check_kernel_name(
    kernel,
    names: Sequence[str],
    *,
    registry: str = "",
    allow_callable: bool = True,
) -> str:
    """Validate a kernel *name* against a registry — the one shared helper.

    Both ALS drivers (:data:`repro.cp.als.KERNEL_NAMES` and
    :data:`repro.cp.parallel_als.PARALLEL_KERNEL_NAMES`) route their name
    validation through here so unknown-kernel errors are worded identically.

    Parameters
    ----------
    kernel:
        The candidate name (anything hashable; non-names fail the lookup).
    names:
        The registry of resolvable names.
    registry:
        Optional qualifier for the message (e.g. ``"parallel"``).
    allow_callable:
        Whether the owning driver also accepts callables (mentioned in the
        error message only).

    Returns
    -------
    str
        ``kernel`` itself when it is a registered name.
    """
    if kernel in names:
        return kernel
    label = f"{registry} MTTKRP kernel" if registry else "MTTKRP kernel"
    suffix = " or a callable" if allow_callable else ""
    raise ParameterError(
        f"unknown {label} {kernel!r}; use one of {', '.join(sorted(names))}{suffix}"
    )
