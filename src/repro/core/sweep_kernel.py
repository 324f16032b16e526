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
protocol.  Cross-call state lives only in :class:`SweepKernel` objects,
which a checkpoint captures by reference
(:meth:`SweepKernel.capture_state`) and copies once, with the driver's
factors.  The module also hosts :func:`check_kernel_name`, the single
kernel-registry validator shared by :func:`repro.cp.als.cp_als` and
:func:`repro.cp.parallel_als.parallel_cp_als`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import ParameterError

#: Signature of a per-call MTTKRP kernel: ``(tensor, factors, mode) -> B``.
MTTKRPCallable = Callable[[np.ndarray, Sequence[Optional[np.ndarray]], int], np.ndarray]


class SweepKernel:
    """Base class of the sweep-aware MTTKRP kernel protocol.

    Subclasses must implement :meth:`mttkrp`; the sweep hooks default to
    no-ops so per-call kernels adapt trivially.
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

    # -- checkpoint/restore protocol ----------------------------------------
    @property
    def state_kind(self) -> str:
        """The writer a checkpoint of this kernel names: its class.

        A distributed kernel adds its processor grid, and the sampled
        kernels their distribution (the sequential one also its cache flag),
        so a checkpoint resumes only under the kernel and the grid that
        wrote it.
        """
        return type(self).__name__

    def capture_state(self) -> Optional[dict]:
        """Every cross-call state the kernel holds, by reference, or ``None``.

        The contract with :meth:`restore_state`: a fresh kernel instance
        (same constructor arguments) restored from this snapshot serves the
        remaining ALS sweeps *bitwise identical* to this instance — cached
        partials, staleness versions, RNG bit-stream position, everything.
        The snapshot holds the live objects and records :attr:`state_kind`
        under ``"kind"``; the one copy is the checkpoint's
        (:meth:`~repro.resilience.checkpoint.CheckpointState.copy`), taken
        with the driver's factors so that a factor the kernel shares with
        the driver stays one object.  Stateless kernels return ``None`` (the
        default).
        """
        return None

    def restore_state(self, state: Optional[dict]) -> None:
        """Adopt a :meth:`capture_state` snapshot's objects as the kernel's own.

        A kernel that keeps no state (the default) accepts only ``None``:
        any snapshot was written by another kernel.
        """
        if state is not None:
            raise ParameterError(
                f"{self.state_kind} keeps no state; cannot resume the kernel "
                f"state written by {state.get('kind')}"
            )

    def check_state(self, state: dict) -> None:
        """Raise unless ``state`` was captured by a kernel of this kind."""
        if state.get("kind") != self.state_kind:
            raise ParameterError(
                f"cannot resume the kernel state written by {state.get('kind')} "
                f"under {self.state_kind}"
            )

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


class PerCallKernel(SweepKernel):
    """Adapter presenting a per-call kernel under the sweep-aware protocol.

    The wrapped callable is re-invoked from scratch on every call (the
    historical behaviour of every kernel before the protocol existed); the
    sweep hooks are no-ops.  The adapter keeps no state, so a checkpoint
    carries none for it, and it is :attr:`~SweepKernel.exact`: a kernel
    with cross-call state or inexact output — a draw stream, a cache — is a
    :class:`SweepKernel` of its own.
    """

    def __init__(self, fn: MTTKRPCallable) -> None:
        if not callable(fn):
            raise ParameterError("PerCallKernel requires a callable MTTKRP kernel")
        self.fn = fn

    def mttkrp(
        self, tensor, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> np.ndarray:
        return self.fn(tensor, factors, mode)


def as_sweep_kernel(kernel) -> SweepKernel:
    """Coerce a kernel to the sweep-aware protocol.

    :class:`SweepKernel` instances pass through; any other callable is wrapped
    in a :class:`PerCallKernel`.
    """
    if isinstance(kernel, SweepKernel):
        return kernel
    if callable(kernel):
        return PerCallKernel(kernel)
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
