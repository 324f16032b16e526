"""Unit tests for the dimension-tree multi-mode MTTKRP (Section VII extension)."""

import numpy as np
import pytest

from repro.core.kernels import mttkrp
from repro.core.multi_mode import (
    independent_contraction_steps,
    multi_mode_mttkrp,
)
from repro.exceptions import ParameterError
from repro.tensor.random import random_factors, random_tensor


def problem(shape, rank, seed=0):
    return random_tensor(shape, seed=seed), random_factors(shape, rank, seed=seed + 1)


class TestCorrectness:
    @pytest.mark.parametrize("shape", [(4, 5), (3, 4, 5), (3, 4, 2, 5), (2, 3, 2, 3, 2)])
    def test_matches_per_mode_kernel(self, shape):
        tensor, factors = problem(shape, 3)
        result = multi_mode_mttkrp(tensor, factors)
        assert set(result.outputs) == set(range(len(shape)))
        for mode in range(len(shape)):
            assert np.allclose(result.outputs[mode], mttkrp(tensor, factors, mode), atol=1e-10)

    def test_subset_of_modes(self):
        tensor, factors = problem((4, 5, 6), 2, seed=3)
        result = multi_mode_mttkrp(tensor, factors, modes=[0, 2])
        assert set(result.outputs) == {0, 2}
        for mode in (0, 2):
            assert np.allclose(result.outputs[mode], mttkrp(tensor, factors, mode))

    def test_single_mode_request(self):
        tensor, factors = problem((4, 5, 6), 2, seed=4)
        result = multi_mode_mttkrp(tensor, factors, modes=[1])
        assert np.allclose(result.outputs[1], mttkrp(tensor, factors, 1))

    def test_output_shapes(self):
        tensor, factors = problem((6, 4, 5), 3, seed=5)
        result = multi_mode_mttkrp(tensor, factors)
        assert result.outputs[0].shape == (6, 3)
        assert result.outputs[2].shape == (5, 3)


class TestReuse:
    def test_fewer_contraction_steps_than_independent(self):
        """The dimension tree's raison d'être: fewer single-mode contractions."""
        for n_modes in (3, 4, 5, 6):
            shape = tuple([3] * n_modes)
            tensor, factors = problem(shape, 2, seed=n_modes)
            result = multi_mode_mttkrp(tensor, factors)
            assert result.partial_contractions < independent_contraction_steps(n_modes)

    def test_two_way_tensor_step_count(self):
        tensor, factors = problem((4, 5), 2, seed=9)
        result = multi_mode_mttkrp(tensor, factors)
        # each output needs exactly one contraction for N = 2
        assert result.partial_contractions == 2

    @pytest.mark.parametrize(
        "shape,modes,steps",
        [
            ((3, 4, 5), None, 5),
            ((3, 4, 2, 5), None, 8),
            ((2, 3, 2, 3, 2), None, 12),
            ((3,) * 6, None, 16),
            ((4, 5, 6), [0, 2], 4),
            ((4, 5, 6), [1], 2),
            ((4, 5, 6), [], 0),
        ],
    )
    def test_step_counts(self, shape, modes, steps):
        """Half-split counts; only the paths to the requested leaves are built."""
        tensor, factors = problem(shape, 2, seed=10)
        result = multi_mode_mttkrp(tensor, factors, modes=modes)
        assert result.partial_contractions == steps
        assert set(result.outputs) == set(range(len(shape)) if modes is None else modes)

    def test_independent_step_formula(self):
        assert independent_contraction_steps(4) == 12
        with pytest.raises(ParameterError):
            independent_contraction_steps(1)


class TestValidation:
    def test_missing_factor_rejected(self):
        tensor, factors = problem((4, 5, 6), 2)
        factors = list(factors)
        factors[1] = None
        with pytest.raises(Exception):
            multi_mode_mttkrp(tensor, factors)

    def test_duplicate_modes_rejected(self):
        tensor, factors = problem((4, 5, 6), 2)
        with pytest.raises(ParameterError):
            multi_mode_mttkrp(tensor, factors, modes=[0, 0])

    def test_one_way_tensor_rejected(self):
        with pytest.raises(ParameterError):
            multi_mode_mttkrp(np.ones(4), [np.ones((4, 2))])

    def test_wrong_factor_shape_rejected(self):
        tensor, factors = problem((4, 5, 6), 2)
        factors = list(factors)
        factors[2] = np.zeros((6, 3))
        with pytest.raises(Exception):
            multi_mode_mttkrp(tensor, factors)
