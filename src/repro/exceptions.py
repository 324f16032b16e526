"""Exception hierarchy for the :mod:`repro` package.

Keeping a small, dedicated hierarchy lets callers distinguish user errors
(bad shapes, invalid parameters) from internal consistency failures of the
simulated machines, without having to parse error messages.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ShapeError(ReproError, ValueError):
    """An array or tensor argument has an incompatible shape."""


class ParameterError(ReproError, ValueError):
    """A scalar parameter (mode, rank, memory size, ...) is invalid."""


class MemoryModelError(ReproError, RuntimeError):
    """The two-level memory model was violated (e.g. fast memory overflow)."""


class MachineError(ReproError, RuntimeError):
    """The simulated distributed machine was used inconsistently."""


class DistributionError(ReproError, ValueError):
    """A data distribution is inconsistent with the processor grid."""


class GridError(ReproError, ValueError):
    """A processor grid cannot be formed with the requested parameters."""


class FaultError(ReproError, RuntimeError):
    """An injected or detected fault could not be recovered from."""


class RankFailureError(FaultError):
    """A simulated rank died mid-collective (recover via checkpoint/restore)."""


class RetryExhaustedError(FaultError):
    """A collective kept failing past the machine's retry budget."""
