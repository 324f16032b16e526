"""Argument validation helpers used across the package.

All public entry points of the library validate their arguments through these
helpers so error messages are consistent and informative.  Each helper returns
the (possibly normalised) value so call sites can write
``mode = check_mode(mode, ndim)``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ParameterError, ShapeError


def infer_rank(factors: Sequence, mode: int) -> int:
    """Rank deduced from the first available input factor matrix.

    The one shared rank-inference helper: every MTTKRP entry point (dense
    einsum, blocked, elementwise, sampled, parallel) that accepts
    ``None`` for the output mode's factor routes through here, so the error
    type (:class:`~repro.exceptions.ParameterError`, a :class:`ValueError`
    subclass) and message are identical everywhere.
    """
    for k, f in enumerate(factors):
        if k != mode and f is not None:
            return int(np.asarray(f).shape[1])
    raise ParameterError("at least one input factor matrix is required")


def check_positive_int(value, name: str, *, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer >= ``minimum`` and return it.

    Parameters
    ----------
    value:
        Value to validate.  numpy integer scalars are accepted and converted.
    name:
        Name used in the error message.
    minimum:
        Smallest acceptable value (inclusive).
    """
    if isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got bool {value!r}")
    if isinstance(value, (np.integer,)):
        value = int(value)
    if not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        else:
            raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_mode(mode, ndim: int) -> int:
    """Validate a tensor mode index ``mode`` for an ``ndim``-way tensor.

    Modes are 0-based (``0 <= mode < ndim``).  Negative modes are supported
    with the usual Python convention (``-1`` is the last mode).
    """
    ndim = check_positive_int(ndim, "ndim", minimum=1)
    if isinstance(mode, (np.integer,)):
        mode = int(mode)
    if not isinstance(mode, int) or isinstance(mode, bool):
        raise ParameterError(f"mode must be an integer, got {mode!r}")
    if mode < 0:
        mode += ndim
    if not 0 <= mode < ndim:
        raise ParameterError(f"mode must be in [0, {ndim}), got {mode}")
    return mode


def check_rank(rank) -> int:
    """Validate a CP rank ``R >= 1``."""
    return check_positive_int(rank, "rank", minimum=1)


def check_shape(shape: Sequence[int], *, min_ndim: int = 1, name: str = "shape") -> Tuple[int, ...]:
    """Validate a tensor shape: a sequence of positive integers.

    Returns the shape as a tuple of Python ints.
    """
    try:
        shape = tuple(shape)
    except TypeError as exc:
        raise ShapeError(f"{name} must be a sequence of ints, got {shape!r}") from exc
    if len(shape) < min_ndim:
        raise ShapeError(f"{name} must have at least {min_ndim} dimensions, got {shape}")
    out = []
    for i, dim in enumerate(shape):
        out.append(check_positive_int(dim, f"{name}[{i}]", minimum=1))
    return tuple(out)


def check_factor_matrices(factors, shape: Sequence[int], rank: int, *, skip_mode=None):
    """Validate a collection of factor matrices against ``shape`` and ``rank``.

    Parameters
    ----------
    factors:
        Either a sequence with one matrix per mode, or (when ``skip_mode`` is
        given) one matrix per mode with the entry at ``skip_mode`` allowed to
        be ``None``.
    shape:
        Tensor shape the factor matrices must match (``factors[k]`` has
        ``shape[k]`` rows).
    rank:
        Number of columns every factor matrix must have.
    skip_mode:
        Optional mode whose factor matrix may be ``None`` / is ignored.

    Returns
    -------
    list of numpy.ndarray
        The validated factor matrices (the skipped entry, if any, is kept as
        given, possibly ``None``).
    """
    shape = check_shape(shape)
    rank = check_rank(rank)
    n_modes = len(shape)
    if len(factors) != n_modes:
        raise ShapeError(
            f"expected {n_modes} factor matrices (one per mode), got {len(factors)}"
        )
    validated = []
    for k, factor in enumerate(factors):
        if skip_mode is not None and k == skip_mode:
            validated.append(factor)
            continue
        arr = np.asarray(factor)
        if arr.ndim != 2:
            raise ShapeError(f"factor matrix for mode {k} must be 2-D, got ndim={arr.ndim}")
        if arr.shape[0] != shape[k] or arr.shape[1] != rank:
            raise ShapeError(
                f"factor matrix for mode {k} must have shape ({shape[k]}, {rank}), "
                f"got {arr.shape}"
            )
        validated.append(arr)
    return validated
