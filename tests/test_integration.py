"""End-to-end integration tests tying the subsystems together."""

import numpy as np
import pytest

from repro import (
    cp_als,
    mttkrp,
    mttkrp_via_matmul,
    random_factors,
    random_low_rank_tensor,
    random_tensor,
)
from repro.bounds.parallel import combined_parallel_lower_bound
from repro.bounds.sequential import sequential_lower_bound
from repro.costmodel.parallel_model import stationary_model_cost
from repro.parallel.general import general_mttkrp
from repro.parallel.grid_selection import choose_general_grid, choose_stationary_grid
from repro.parallel.stationary import stationary_mttkrp
from repro.sequential.blocked import sequential_blocked_mttkrp
from repro.sequential.matmul_io import matmul_sequential_mttkrp
from repro.sequential.unblocked import sequential_unblocked_mttkrp


class TestAllKernelsAgree:
    """Every MTTKRP implementation in the package produces the same numbers."""

    @pytest.mark.parametrize("shape,rank", [((6, 5, 4), 3), ((4, 4, 4, 3), 2)])
    def test_agreement(self, shape, rank):
        tensor = random_tensor(shape, seed=0)
        factors = random_factors(shape, rank, seed=1)
        n_procs = 4
        stat_grid = choose_stationary_grid(shape, rank, n_procs)
        gen_grid = choose_general_grid(shape, rank, n_procs)
        for mode in range(len(shape)):
            reference = mttkrp(tensor, factors, mode)
            candidates = {
                "matmul": mttkrp_via_matmul(tensor, factors, mode),
                "alg1": sequential_unblocked_mttkrp(tensor, factors, mode).result,
                "alg2": sequential_blocked_mttkrp(tensor, factors, mode, block=2).result,
                "alg2_auto": sequential_blocked_mttkrp(tensor, factors, mode, memory_words=64).result,
                "matmul_io": matmul_sequential_mttkrp(tensor, factors, mode, memory_words=64).result,
                "alg3": stationary_mttkrp(tensor, factors, mode, stat_grid).assemble(),
                "alg4": general_mttkrp(tensor, factors, mode, gen_grid).assemble(),
            }
            for name, value in candidates.items():
                assert np.allclose(value, reference, atol=1e-9), f"{name} disagrees in mode {mode}"


class TestCommunicationHierarchy:
    """The qualitative communication relationships the paper establishes."""

    def test_sequential_blocked_beats_unblocked_beats_nothing(self):
        shape, rank, memory = (16, 16, 16), 8, 1024
        tensor = random_tensor(shape, seed=2)
        factors = random_factors(shape, rank, seed=3)
        blocked = sequential_blocked_mttkrp(tensor, factors, 0, memory_words=memory).words_moved
        unblocked = sequential_unblocked_mttkrp(tensor, factors, 0).words_moved
        bounds = sequential_lower_bound(shape, rank, memory)
        assert bounds.combined <= blocked <= unblocked

    def test_parallel_measured_between_bounds_and_model_times_constant(self):
        shape, rank, n_procs = (16, 16, 16), 4, 8
        tensor = random_tensor(shape, seed=4)
        factors = random_factors(shape, rank, seed=5)
        grid = choose_stationary_grid(shape, rank, n_procs)
        run = stationary_mttkrp(tensor, factors, 0, grid)
        measured = run.max_words_communicated
        model = stationary_model_cost(shape, rank, n_procs)
        bound = combined_parallel_lower_bound(shape, rank, n_procs).combined
        # sends + receives respect the lower bound; the measured one-directional
        # count is within a small constant of the balanced-distribution model.
        assert 2 * measured >= bound
        assert measured <= 4 * model + 1

    def test_more_processors_do_not_increase_total_traffic_per_word_of_output(self):
        shape, rank = (16, 16, 16), 4
        tensor = random_tensor(shape, seed=6)
        factors = random_factors(shape, rank, seed=7)
        per_proc = []
        for n_procs in (2, 4, 8, 16):
            grid = choose_stationary_grid(shape, rank, n_procs)
            run = stationary_mttkrp(tensor, factors, 0, grid)
            per_proc.append(run.max_words_communicated)
        # per-processor communication should not blow up with more processors
        assert per_proc[-1] <= 4 * per_proc[0]


class TestCPALSWorkload:
    def test_cp_als_with_every_kernel_path(self):
        tensor = random_low_rank_tensor((8, 7, 6), 2, seed=8)
        einsum_run = cp_als(tensor, 2, n_iter_max=15, seed=9, kernel="einsum")
        matmul_run = cp_als(tensor, 2, n_iter_max=15, seed=9, kernel=mttkrp_via_matmul)
        assert einsum_run.final_fit > 0.98
        assert np.isclose(einsum_run.final_fit, matmul_run.final_fit, atol=1e-8)

    def test_counted_kernel_inside_cp_als(self):
        """CP-ALS driven by the counted blocked kernel reports plausible I/O."""
        from repro.sequential.machine import IOCounter

        tensor = random_low_rank_tensor((6, 6, 6), 2, seed=10)
        counter = IOCounter()

        def counted_kernel(data, factors, mode):
            return sequential_blocked_mttkrp(data, factors, mode, block=3, counter=counter).result

        result = cp_als(tensor, 2, n_iter_max=4, tol=0.0, seed=11, kernel=counted_kernel)
        assert result.mttkrp_calls == 12
        assert counter.words_moved > 0
