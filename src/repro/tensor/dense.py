"""A thin dense-tensor wrapper with the operations MTTKRP algorithms need.

``DenseTensor`` wraps a numpy array and exposes the operations the paper's
algorithms use — mode-``n`` unfolding and norms — without hiding the
underlying array (``.data`` is always available and most functions in the
package accept raw arrays as well).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ParameterError, ShapeError
from repro.tensor.matricization import unfold
from repro.utils.validation import check_shape


class DenseTensor:
    """Dense N-way tensor.

    Parameters
    ----------
    data:
        Array-like of at least 1 dimension.  A floating-point numpy array is
        used as it is, without a copy and in its own memory layout; other
        numeric data is converted to ``float64``.  The data is not made
        C-contiguous, and the dimension tree runs its root GEMM only on
        C-contiguous data.

    Attributes
    ----------
    data:
        The underlying :class:`numpy.ndarray`.
    """

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        arr = _numeric_array(data)
        if arr.ndim < 1:
            raise ShapeError("DenseTensor requires at least a 1-way array")
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr

    # -- basic properties -------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Tensor dimensions ``(I_1, ..., I_N)``."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of modes ``N``."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of entries ``I = prod_k I_k``."""
        return int(self.data.size)

    @property
    def dtype(self):
        """Element dtype of the underlying array."""
        return self.data.dtype

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DenseTensor(shape={self.shape}, dtype={self.dtype})"

    def __eq__(self, other) -> bool:
        if isinstance(other, DenseTensor):
            other = other.data
        return isinstance(other, np.ndarray) and np.array_equal(self.data, other)

    def __hash__(self):  # tensors are mutable containers
        raise TypeError("DenseTensor is not hashable")

    # -- numerics ---------------------------------------------------------
    def norm(self) -> float:
        """Frobenius norm of the tensor."""
        return float(np.linalg.norm(self.data.ravel(order="K")))

    def copy(self) -> "DenseTensor":
        """Deep copy of the tensor."""
        return DenseTensor(self.data.copy())

    def unfold(self, mode: int) -> np.ndarray:
        """Mode-``mode`` matricization (see :func:`repro.tensor.unfold`)."""
        return unfold(self.data, mode)

    # -- constructors ------------------------------------------------------
    @classmethod
    def zeros(cls, shape: Sequence[int], dtype=np.float64) -> "DenseTensor":
        """All-zero tensor of the given shape."""
        return cls(np.zeros(check_shape(shape), dtype=dtype))


#: dtype kinds the real-valued kernels accept: bool, signed and unsigned
#: integer, and floating point.
_NUMERIC_KINDS = "biuf"


def _numeric_array(tensor) -> np.ndarray:
    """``np.asarray(tensor)``, rejecting data the real-valued kernels cannot use.

    Object, string, complex, and other non-numeric dtypes raise
    :class:`~repro.exceptions.ParameterError` naming the input's type and
    dtype, instead of failing later with a misleading shape error (any
    object that is not array-like converts to a 0-d object array) or
    silently dropping an imaginary part.
    """
    arr = np.asarray(tensor)
    if arr.dtype.kind in _NUMERIC_KINDS:
        return arr
    raise ParameterError(
        "expected a tensor of bool, int, uint or float dtype, got "
        f"{type(tensor).__name__} with dtype {arr.dtype}"
    )


def as_ndarray(tensor) -> np.ndarray:
    """Return the underlying numpy array of a ``DenseTensor`` or array-like.

    Raises :class:`~repro.exceptions.ParameterError` for non-numeric input
    (see :func:`_numeric_array`).
    """
    if isinstance(tensor, DenseTensor):
        return tensor.data
    return _numeric_array(tensor)
