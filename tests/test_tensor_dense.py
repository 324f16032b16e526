"""Unit tests for the DenseTensor wrapper."""

import numpy as np
import pytest

from repro.core.dimtree import DimensionTree
from repro.core.kernels import mttkrp
from repro.cp import cp_als, parallel_cp_als
from repro.exceptions import ParameterError, ShapeError
from repro.tensor.dense import DenseTensor, as_ndarray
from repro.tensor.matricization import fold
from repro.tensor.random import random_factors


class TestConstruction:
    def test_from_array(self):
        t = DenseTensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6

    def test_integer_input_promoted_to_float(self):
        t = DenseTensor(np.arange(6).reshape(2, 3))
        assert np.issubdtype(t.dtype, np.floating)

    def test_complex_input_rejected(self):
        with pytest.raises(ParameterError, match="complex128"):
            DenseTensor(np.ones((2, 2), dtype=complex))

    def test_scalar_rejected(self):
        with pytest.raises(ShapeError):
            DenseTensor(np.float64(3.0))

    def test_zeros_constructor(self):
        t = DenseTensor.zeros((2, 3, 4))
        assert t.shape == (2, 3, 4)
        assert t.norm() == 0.0


class TestOperations:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.t = DenseTensor(rng.standard_normal((3, 4, 5)))

    def test_norm_matches_numpy(self):
        assert np.isclose(self.t.norm(), np.linalg.norm(self.t.data))

    def test_copy_is_deep(self):
        c = self.t.copy()
        c.data[0, 0, 0] = 123.0
        assert self.t.data[0, 0, 0] != 123.0

    def test_unfold_roundtrip(self):
        u = self.t.unfold(1)
        assert np.array_equal(fold(u, 1, self.t.shape), self.t.data)

    def test_equality(self):
        assert self.t == self.t.copy()
        assert not (self.t == DenseTensor.zeros(self.t.shape))

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(self.t)


class TestAsNdarray:
    def test_passthrough(self):
        arr = np.zeros((2, 2))
        assert as_ndarray(arr) is arr

    def test_unwraps_dense_tensor(self):
        t = DenseTensor(np.zeros((2, 2)))
        assert as_ndarray(t) is t.data

    def test_converts_lists(self):
        assert as_ndarray([[1.0, 2.0]]).shape == (1, 2)


_ENTRY_POINTS = {
    "cp_als": lambda t: cp_als(t, 2, n_iter_max=2),
    "parallel_cp_als": lambda t: parallel_cp_als(t, 2, 4, n_iter_max=2),
    "mttkrp": lambda t: mttkrp(t, random_factors((4, 5, 6), 2, seed=0), 0),
    "DimensionTree": DimensionTree,
}

_NON_NUMERIC = {
    "object": (object(), "object with dtype object"),
    "str": (np.full((4, 5, 6), "x"), "ndarray with dtype <U1"),
    "complex": (np.ones((4, 5, 6), dtype=complex), "ndarray with dtype complex128"),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("kind", sorted(_NON_NUMERIC))
def test_non_numeric_tensor_rejected_up_front(entry, kind):
    """Non-real input fails with a ParameterError naming what was passed,
    not a misleading mode-count error or a silently dropped imaginary part."""
    tensor, match = _NON_NUMERIC[kind]
    with pytest.raises(ParameterError, match=match):
        _ENTRY_POINTS[entry](tensor)
