"""Unit tests for processor-grid selection."""

import numpy as np
import pytest

from repro.exceptions import GridError
from repro.parallel.grid_selection import (
    choose_general_grid,
    choose_stationary_grid,
    factorizations,
    general_grid_cost,
    ideal_general_grid,
    ideal_stationary_grid,
    stationary_grid_cost,
)


class TestFactorizations:
    def test_count_for_prime(self):
        assert sorted(factorizations(5, 2)) == [(1, 5), (5, 1)]

    def test_products_are_correct(self):
        for f in factorizations(24, 3):
            assert f[0] * f[1] * f[2] == 24

    def test_single_part(self):
        assert factorizations(12, 1) == [(12,)]

    def test_count_formula_for_prime_powers(self):
        # number of ordered factorizations of p^k into m parts = C(k+m-1, m-1)
        assert len(factorizations(2**4, 3)) == 15

    def test_one(self):
        assert factorizations(1, 3) == [(1, 1, 1)]


class TestGridCosts:
    def test_stationary_cost_zero_on_one_proc(self):
        assert stationary_grid_cost((8, 8, 8), 4, (1, 1, 1)) == 0

    def test_general_cost_zero_on_one_proc(self):
        assert general_grid_cost((8, 8, 8), 4, (1, 1, 1, 1)) == 0

    def test_general_with_p0_one_matches_stationary(self):
        shape, rank = (16, 16, 16), 8
        for grid in [(2, 2, 2), (4, 2, 1), (1, 8, 1)]:
            assert general_grid_cost(shape, rank, (1,) + grid) == stationary_grid_cost(
                shape, rank, grid
            )

    def test_wrong_arity(self):
        with pytest.raises(GridError):
            stationary_grid_cost((8, 8), 4, (2, 2, 2))
        with pytest.raises(GridError):
            general_grid_cost((8, 8), 4, (2, 2))

    def test_balanced_grid_beats_skewed_grid_on_cube(self):
        shape, rank = (32, 32, 32), 4
        assert stationary_grid_cost(shape, rank, (2, 2, 2)) < stationary_grid_cost(
            shape, rank, (8, 1, 1)
        )


class TestChooseGrids:
    def test_stationary_product_is_p(self):
        for p in (1, 2, 6, 8, 12, 16, 64):
            grid = choose_stationary_grid((16, 16, 16), 4, p)
            assert int(np.prod(grid)) == p

    def test_general_product_is_p(self):
        for p in (1, 4, 8, 24, 32):
            grid = choose_general_grid((16, 16, 16), 8, p)
            assert int(np.prod(grid)) == p

    def test_stationary_is_optimal_over_factorizations(self):
        shape, rank, p = (16, 8, 4), 4, 16
        chosen = choose_stationary_grid(shape, rank, p)
        fitting = [c for c in factorizations(p, 3) if all(q <= d for q, d in zip(c, shape))]
        best = min(stationary_grid_cost(shape, rank, c) for c in fitting)
        assert stationary_grid_cost(shape, rank, chosen) == best

    def test_general_is_optimal_over_factorizations(self):
        shape, rank, p = (8, 8, 8), 16, 16
        chosen = choose_general_grid(shape, rank, p)
        fitting = [
            c
            for c in factorizations(p, 4)
            if c[0] <= rank and all(q <= d for q, d in zip(c[1:], shape))
        ]
        best = min(general_grid_cost(shape, rank, c) for c in fitting)
        assert general_grid_cost(shape, rank, chosen) == best

    def test_cubical_tensor_gets_balanced_grid(self):
        grid = choose_stationary_grid((32, 32, 32), 4, 8)
        assert sorted(grid) == [2, 2, 2]

    def test_skewed_tensor_gets_skewed_grid(self):
        grid = choose_stationary_grid((64, 4, 4), 4, 16)
        assert grid[0] >= 4  # most processors go to the long mode

    def test_grid_fits_the_dimensions(self):
        grid = choose_stationary_grid((2, 2, 64), 4, 16)
        assert grid[0] <= 2 and grid[1] <= 2

    def test_rank_dominated_problem_uses_p0(self):
        """When R is much larger than I/P, the chosen general grid has P_0 > 1."""
        grid = choose_general_grid((4, 4, 4), 256, 16)
        assert grid[0] > 1


class TestIdealGrids:
    def test_stationary_product_close_to_p(self):
        shape, p = (2**10, 2**10, 2**10), 2**12
        dims = ideal_stationary_grid(shape, p)
        assert np.isclose(np.prod(dims), p, rtol=1e-6)

    def test_stationary_proportional_to_dims(self):
        dims = ideal_stationary_grid((100, 200, 400), 64)
        assert dims[0] < dims[1] < dims[2]

    def test_clamping_at_one(self):
        dims = ideal_stationary_grid((2, 1000, 1000), 4)
        assert all(d >= 1.0 for d in dims)

    def test_general_p0_grows_with_rank(self):
        shape, p = (2**10, 2**10, 2**10), 2**20
        small = ideal_general_grid(shape, 2**4, p)[0]
        large = ideal_general_grid(shape, 2**12, p)[0]
        assert large >= small

    def test_general_p0_at_least_one(self):
        assert ideal_general_grid((64, 64, 64), 4, 8)[0] >= 1.0
