"""Unit tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.exceptions import ParameterError, ShapeError
from repro.utils.validation import (
    check_factor_matrices,
    check_mode,
    check_positive_int,
    check_rank,
    check_shape,
)


class TestCheckPositiveInt:
    def test_accepts_plain_int(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_numpy_int(self):
        assert check_positive_int(np.int64(7), "x") == 7
        assert isinstance(check_positive_int(np.int64(7), "x"), int)

    def test_accepts_integral_float(self):
        assert check_positive_int(4.0, "x") == 4

    def test_rejects_bool(self):
        with pytest.raises(ParameterError):
            check_positive_int(True, "x")

    def test_rejects_non_integral_float(self):
        with pytest.raises(ParameterError):
            check_positive_int(2.5, "x")

    def test_rejects_below_minimum(self):
        with pytest.raises(ParameterError):
            check_positive_int(0, "x")
        with pytest.raises(ParameterError):
            check_positive_int(4, "x", minimum=5)

    def test_minimum_is_inclusive(self):
        assert check_positive_int(5, "x", minimum=5) == 5

    def test_rejects_strings(self):
        with pytest.raises(ParameterError):
            check_positive_int("3", "x")


class TestCheckMode:
    def test_valid_modes(self):
        assert check_mode(0, 3) == 0
        assert check_mode(2, 3) == 2

    def test_negative_mode_wraps(self):
        assert check_mode(-1, 3) == 2
        assert check_mode(-3, 3) == 0

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            check_mode(3, 3)
        with pytest.raises(ParameterError):
            check_mode(-4, 3)

    def test_rejects_non_integer(self):
        with pytest.raises(ParameterError):
            check_mode(1.5, 3)

    def test_numpy_integer_mode(self):
        assert check_mode(np.int32(1), 3) == 1


class TestCheckShape:
    def test_basic(self):
        assert check_shape([3, 4, 5]) == (3, 4, 5)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ParameterError):
            check_shape((3, 0, 5))

    def test_rejects_too_few_dims(self):
        with pytest.raises(ShapeError):
            check_shape((3,), min_ndim=2)

    def test_rejects_non_sequence(self):
        with pytest.raises(ShapeError):
            check_shape(7)

    def test_rank_validation(self):
        assert check_rank(4) == 4
        with pytest.raises(ParameterError):
            check_rank(0)


class TestCheckFactorMatrices:
    def setup_method(self):
        self.shape = (4, 5, 6)
        self.rank = 3
        self.factors = [np.zeros((d, self.rank)) for d in self.shape]

    def test_accepts_valid(self):
        out = check_factor_matrices(self.factors, self.shape, self.rank)
        assert len(out) == 3

    def test_skip_mode_allows_none(self):
        factors = list(self.factors)
        factors[1] = None
        out = check_factor_matrices(factors, self.shape, self.rank, skip_mode=1)
        assert out[1] is None

    def test_wrong_count(self):
        with pytest.raises(ShapeError):
            check_factor_matrices(self.factors[:2], self.shape, self.rank)

    def test_wrong_row_count(self):
        factors = list(self.factors)
        factors[0] = np.zeros((7, self.rank))
        with pytest.raises(ShapeError):
            check_factor_matrices(factors, self.shape, self.rank)

    def test_wrong_rank(self):
        factors = list(self.factors)
        factors[2] = np.zeros((6, self.rank + 1))
        with pytest.raises(ShapeError):
            check_factor_matrices(factors, self.shape, self.rank)

    def test_rejects_1d_factor(self):
        factors = list(self.factors)
        factors[0] = np.zeros(4)
        with pytest.raises(ShapeError):
            check_factor_matrices(factors, self.shape, self.rank)
