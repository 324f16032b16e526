"""Unit tests for the COO sparse tensor substrate and sparse MTTKRP."""

import numpy as np
import pytest

from repro.core.kernels import mttkrp
from repro.exceptions import ParameterError, ShapeError
from repro.tensor.random import random_factors
from repro.tensor.sparse import (
    SparseTensor,
    sparse_mttkrp,
    sparse_mttkrp_unchunked,
)


class TestSparseTensor:
    def test_construction_and_properties(self):
        st = SparseTensor(shape=(3, 4), coords=[[0, 0], [2, 3]], values=[1.0, 2.0])
        assert st.ndim == 2
        assert st.nnz == 2
        assert np.isclose(st.density(), 2 / 12)

    def test_to_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((4, 5, 3))
        dense[np.abs(dense) < 0.8] = 0.0
        st = SparseTensor.from_dense(dense)
        assert np.allclose(st.to_dense(), dense)

    def test_duplicates_are_summed(self):
        st = SparseTensor(shape=(2, 2), coords=[[0, 0], [0, 0]], values=[1.0, 2.0])
        assert st.to_dense()[0, 0] == 3.0

    def test_coordinate_out_of_range(self):
        with pytest.raises(ShapeError):
            SparseTensor(shape=(2, 2), coords=[[0, 2]], values=[1.0])

    def test_bad_values_length(self):
        with pytest.raises(ShapeError):
            SparseTensor(shape=(2, 2), coords=[[0, 0]], values=[1.0, 2.0])

    def test_random_density(self):
        st = SparseTensor.random((10, 10, 10), 0.05, seed=1)
        assert 0.01 <= st.density() <= 0.1
        assert st.coords.shape[1] == 3

    def test_random_invalid_density(self):
        with pytest.raises(ParameterError):
            SparseTensor.random((4, 4), 0.0)


class TestSparseMTTKRP:
    @pytest.mark.parametrize("shape", [(5, 4), (4, 5, 3), (3, 3, 3, 3)])
    def test_matches_dense_kernel(self, shape):
        st = SparseTensor.random(shape, 0.3, seed=2)
        factors = random_factors(shape, 3, seed=3)
        dense = st.to_dense()
        for mode in range(len(shape)):
            assert np.allclose(
                sparse_mttkrp(st, factors, mode), mttkrp(dense, factors, mode), atol=1e-10
            )

    def test_empty_tensor_gives_zero(self):
        st = SparseTensor(shape=(4, 5, 3), coords=np.empty((0, 3), dtype=int), values=[])
        factors = random_factors((4, 5, 3), 2, seed=4)
        assert np.all(sparse_mttkrp(st, factors, 1) == 0.0)

    def test_missing_factors_rejected(self):
        st = SparseTensor.random((4, 4), 0.5, seed=5)
        with pytest.raises(ParameterError):
            sparse_mttkrp(st, [None, None], 0)

    def test_none_at_output_mode_allowed(self):
        st = SparseTensor.random((4, 4, 4), 0.5, seed=6)
        factors = random_factors((4, 4, 4), 2, seed=7)
        factors[1] = None
        assert sparse_mttkrp(st, factors, 1).shape == (4, 2)

    @pytest.mark.parametrize("kernel", [sparse_mttkrp, sparse_mttkrp_unchunked])
    def test_duplicate_coordinates_sum(self, kernel):
        """Duplicates-summed contract holds at the MTTKRP level.

        Regression test: both kernels must agree with the dense kernel on
        the *summed* tensor, i.e. a duplicated entry contributes twice.
        """
        coords = [[1, 0, 2], [1, 0, 2], [0, 1, 1]]
        st = SparseTensor(shape=(3, 3, 3), coords=coords, values=[1.5, 2.5, -1.0])
        factors = random_factors((3, 3, 3), 2, seed=11)
        dense = st.to_dense()  # sums the duplicate into one entry
        for mode in range(3):
            np.testing.assert_allclose(
                kernel(st, factors, mode), mttkrp(dense, factors, mode), atol=1e-12
            )

    def test_unchunked_allocates_no_ones_temp(self):
        """The first factor gather broadcasts directly against the values.

        Guards the (nnz, R) ``np.ones`` pre-multiply from creeping back: with
        a single input factor the contribution array must be exactly
        ``values[:, None] * A[coords]``, bit for bit.
        """
        st = SparseTensor.random((6, 5), 0.4, seed=12)
        factor = random_factors((6, 5), 3, seed=13)[1]
        expected = np.zeros((6, 3))
        np.add.at(
            expected, st.coords[:, 0], st.values[:, None] * factor[st.coords[:, 1], :]
        )
        assert np.array_equal(sparse_mttkrp_unchunked(st, [None, factor], 0), expected)
