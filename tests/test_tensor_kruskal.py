"""Unit tests for KruskalTensor."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.tensor.khatri_rao import khatri_rao_excluding
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.matricization import fold
from repro.tensor.random import random_kruskal_tensor


class TestConstruction:
    def test_basic(self):
        kt = KruskalTensor([np.ones((3, 2)), np.ones((4, 2))])
        assert kt.shape == (3, 4)
        assert kt.rank == 2
        assert kt.ndim == 2
        assert np.array_equal(kt.weights, np.ones(2))

    def test_explicit_weights(self):
        kt = KruskalTensor([np.ones((3, 2)), np.ones((4, 2))], weights=[2.0, 3.0])
        assert np.array_equal(kt.weights, [2.0, 3.0])

    def test_requires_two_modes(self):
        with pytest.raises(ShapeError):
            KruskalTensor([np.ones((3, 2))])

    def test_inconsistent_rank(self):
        with pytest.raises(ShapeError):
            KruskalTensor([np.ones((3, 2)), np.ones((4, 3))])

    def test_bad_weights_shape(self):
        with pytest.raises(ShapeError):
            KruskalTensor([np.ones((3, 2)), np.ones((4, 2))], weights=[1.0])

    def test_copy_is_deep(self):
        kt = random_kruskal_tensor((3, 4), 2, seed=0)
        other = kt.copy()
        other.factors[0][0, 0] = 100.0
        assert kt.factors[0][0, 0] != 100.0


class TestReconstruction:
    def test_rank_one_outer_product(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[3.0], [4.0], [5.0]])
        kt = KruskalTensor([a, b])
        full = kt.full().data
        assert np.allclose(full, np.outer([1.0, 2.0], [3.0, 4.0, 5.0]))

    def test_weights_scale_reconstruction(self):
        kt = random_kruskal_tensor((3, 4, 2), 2, seed=1)
        scaled = KruskalTensor([f.copy() for f in kt.factors], kt.weights * 2.0)
        assert np.allclose(scaled.full().data, 2.0 * kt.full().data)

    def test_matches_elementwise_definition(self):
        kt = random_kruskal_tensor((3, 4, 2), 3, seed=2)
        full = kt.full().data
        expected = np.zeros(kt.shape)
        for r in range(kt.rank):
            expected += kt.weights[r] * np.einsum(
                "i,j,k->ijk", kt.factors[0][:, r], kt.factors[1][:, r], kt.factors[2][:, r]
            )
        assert np.allclose(full, expected)


def _folded_unfolding(kt):
    """Reference: the mode-0 unfolding ``(A_0 w) @ krp.T`` folded back, a
    strided view of the GEMM's output."""
    krp = khatri_rao_excluding(kt.factors, 0)
    unfolding = (kt.factors[0] * kt.weights[None, :]) @ krp.T
    return fold(unfolding, 0, kt.shape)


class TestReconstructionLayout:
    """``full()`` writes C order from one GEMM, with the folded unfolding's bits."""

    @pytest.mark.parametrize(
        "shape",
        [(12, 10), (9, 8, 7), (7, 1, 6), (6, 5, 4, 3), (1, 5, 4, 3), (5, 4, 3, 2, 3)],
        ids=str,
    )
    def test_c_ordered_and_bitwise_the_folded_unfolding(self, shape):
        rng = np.random.default_rng(12)
        kt = random_kruskal_tensor(shape, 4, seed=rng, weights=rng.standard_normal(4))
        got = kt.full().data
        want = _folded_unfolding(kt)
        assert got.flags["C_CONTIGUOUS"]
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestNormsAndFit:
    def test_norm_matches_dense(self):
        kt = random_kruskal_tensor((4, 5, 3), 3, seed=3)
        assert np.isclose(kt.norm(), np.linalg.norm(kt.full().data))

    def test_inner_matches_dense(self):
        kt = random_kruskal_tensor((4, 3, 2), 2, seed=4)
        rng = np.random.default_rng(5)
        other = rng.standard_normal(kt.shape)
        assert np.isclose(kt.inner(other), np.sum(kt.full().data * other))

    def test_fit_of_itself_is_one(self):
        kt = random_kruskal_tensor((4, 3, 2), 2, seed=6)
        assert np.isclose(kt.fit(kt.full()), 1.0)

    def test_fit_decreases_with_noise(self):
        kt = random_kruskal_tensor((4, 3, 2), 2, seed=7)
        dense = kt.full().data
        noisy = dense + 0.5 * np.linalg.norm(dense) * np.ones_like(dense) / np.sqrt(dense.size)
        assert kt.fit(noisy) < 1.0

    def test_inner_shape_mismatch(self):
        kt = random_kruskal_tensor((4, 3, 2), 2, seed=8)
        with pytest.raises(ShapeError):
            kt.inner(np.zeros((4, 3, 3)))


class TestNormalization:
    def test_normalize_preserves_tensor(self):
        kt = random_kruskal_tensor((4, 3, 5), 3, seed=9)
        normalized = kt.normalize()
        assert np.allclose(normalized.full().data, kt.full().data)
        for f in normalized.factors:
            norms = np.linalg.norm(f, axis=0)
            assert np.allclose(norms, 1.0)

    def test_arrange_sorts_by_weight(self):
        kt = random_kruskal_tensor((4, 3, 5), 3, seed=10)
        arranged = kt.arrange()
        weights = np.abs(arranged.weights)
        assert np.all(weights[:-1] >= weights[1:])
        assert np.allclose(arranged.full().data, kt.full().data)

    def test_normalize_handles_zero_column(self):
        factors = [np.ones((3, 2)), np.ones((4, 2))]
        factors[0][:, 1] = 0.0
        kt = KruskalTensor(factors)
        normalized = kt.normalize()
        assert np.allclose(normalized.full().data, kt.full().data)
        assert normalized.weights[1] == 0.0
