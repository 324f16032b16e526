"""Integration tests for Algorithms 3 and 4 on the simulated machine."""

import numpy as np
import pytest

from repro.bounds.parallel import combined_parallel_lower_bound
from repro.core.kernels import mttkrp
from repro.exceptions import DistributionError
from repro.observe import tracing
from repro.parallel.dimtree import DistributedDimtreeKernel
from repro.parallel.general import GeneralKernel, general_mttkrp
from repro.parallel.grid_selection import general_grid_cost, stationary_grid_cost
from repro.parallel.machine import SimulatedMachine
from repro.parallel.stationary import StationaryKernel, stationary_mttkrp
from repro.sketch.parallel.sampled_dimtree import DistributedSampledDimtreeKernel
from repro.tensor.random import random_factors, random_tensor


def problem(shape=(8, 6, 4), rank=3, seed=0):
    return random_tensor(shape, seed=seed), random_factors(shape, rank, seed=seed + 1)


class TestStationaryCorrectness:
    @pytest.mark.parametrize("grid", [(1, 1, 1), (2, 1, 1), (2, 3, 2), (4, 2, 1), (2, 2, 2)])
    def test_matches_reference(self, grid):
        tensor, factors = problem()
        for mode in range(3):
            result = stationary_mttkrp(tensor, factors, mode, grid)
            assert np.allclose(result.assemble(), mttkrp(tensor, factors, mode))

    def test_four_way_tensor(self):
        tensor, factors = problem((4, 3, 5, 2), 2, seed=5)
        result = stationary_mttkrp(tensor, factors, 2, (2, 1, 2, 1))
        assert np.allclose(result.assemble(), mttkrp(tensor, factors, 2))

    def test_two_way_tensor(self):
        tensor, factors = problem((6, 8), 3, seed=6)
        result = stationary_mttkrp(tensor, factors, 0, (2, 2))
        assert np.allclose(result.assemble(), mttkrp(tensor, factors, 0))

    def test_single_processor_no_communication(self):
        tensor, factors = problem()
        result = stationary_mttkrp(tensor, factors, 0, (1, 1, 1))
        assert result.max_words_communicated == 0

    def test_uneven_dimensions(self):
        tensor, factors = problem((7, 5, 3), 2, seed=7)
        result = stationary_mttkrp(tensor, factors, 1, (2, 2, 1))
        assert np.allclose(result.assemble(), mttkrp(tensor, factors, 1))


class TestStationaryCommunication:
    def test_measured_cost_matches_grid_cost_model(self):
        """With dimensions divisible by the grid the measured words equal the model."""
        shape, rank, grid = (8, 8, 8), 4, (2, 2, 2)
        tensor, factors = problem(shape, rank, seed=1)
        result = stationary_mttkrp(tensor, factors, 0, grid)
        assert result.max_words_communicated == stationary_grid_cost(shape, rank, grid)

    def test_tensor_is_never_communicated(self):
        """The stationary algorithm's traffic is independent of the tensor size."""
        rank, grid = 4, (2, 2, 2)
        small_t, small_f = problem((8, 8, 8), rank, seed=2)
        large_t, large_f = problem((16, 16, 16), rank, seed=3)
        small = stationary_mttkrp(small_t, small_f, 0, grid).max_words_communicated
        large = stationary_mttkrp(large_t, large_f, 0, grid).max_words_communicated
        # factor matrices double in rows -> communication doubles, not x8
        assert large == 2 * small

    def test_words_scale_linearly_with_rank(self):
        shape, grid = (8, 8, 8), (2, 2, 2)
        tensor, f2 = problem(shape, 2, seed=4)
        _, f4 = problem(shape, 4, seed=5)
        w2 = stationary_mttkrp(tensor, f2, 0, grid).max_words_communicated
        w4 = stationary_mttkrp(tensor, f4, 0, grid).max_words_communicated
        assert w4 == 2 * w2

    def test_flops_are_load_balanced(self):
        shape, rank, grid = (8, 8, 8), 4, (2, 2, 2)
        tensor, factors = problem(shape, rank, seed=6)
        result = stationary_mttkrp(tensor, factors, 0, grid)
        flops = result.machine.flops
        assert flops.max() <= 1.2 * max(flops.min(), 1)

    def test_storage_recorded(self):
        tensor, factors = problem((8, 8, 8), 4, seed=7)
        result = stationary_mttkrp(tensor, factors, 0, (2, 2, 2))
        # each rank holds at least its subtensor (8^3 / 8 = 64 words)
        assert result.machine.max_storage >= 64

    def test_machine_size_mismatch_raises(self):
        tensor, factors = problem()
        with pytest.raises(DistributionError):
            stationary_mttkrp(tensor, factors, 0, (2, 2, 2), machine=SimulatedMachine(4))


class TestGeneralCorrectness:
    @pytest.mark.parametrize(
        "grid", [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 2, 1), (2, 2, 1, 1), (3, 2, 1, 2), (2, 2, 3, 2)]
    )
    def test_matches_reference(self, grid):
        tensor, factors = problem((8, 6, 4), 6, seed=8)
        for mode in range(3):
            result = general_mttkrp(tensor, factors, mode, grid)
            assert np.allclose(result.assemble(), mttkrp(tensor, factors, mode))

    def test_p0_equal_one_matches_stationary_communication(self):
        """With P_0 = 1 Algorithm 4 degenerates to Algorithm 3 (same traffic)."""
        shape, rank = (8, 8, 8), 4
        tensor, factors = problem(shape, rank, seed=9)
        stationary = stationary_mttkrp(tensor, factors, 0, (2, 2, 2))
        general = general_mttkrp(tensor, factors, 0, (1, 2, 2, 2))
        assert general.max_words_communicated == stationary.max_words_communicated
        assert np.allclose(general.assemble(), stationary.assemble())

    def test_four_way_tensor(self):
        tensor, factors = problem((4, 3, 4, 2), 4, seed=10)
        result = general_mttkrp(tensor, factors, 3, (2, 2, 1, 2, 1))
        assert np.allclose(result.assemble(), mttkrp(tensor, factors, 3))

    def test_wrong_grid_arity_raises(self):
        tensor, factors = problem()
        with pytest.raises(DistributionError):
            general_mttkrp(tensor, factors, 0, (2, 2, 2))

    def test_measured_cost_matches_grid_cost_model(self):
        shape, rank, grid = (8, 8, 8), 8, (2, 2, 2, 1)
        tensor, factors = problem(shape, rank, seed=11)
        result = general_mttkrp(tensor, factors, 0, grid)
        assert result.max_words_communicated == general_grid_cost(shape, rank, grid)

    def test_column_partitioning_reduces_factor_traffic(self):
        """For rank-dominated problems a P_0 > 1 grid communicates less."""
        shape, rank = (4, 4, 4), 32
        tensor, factors = problem(shape, rank, seed=12)
        flat = general_mttkrp(tensor, factors, 0, (1, 2, 2, 2)).max_words_communicated
        split = general_mttkrp(tensor, factors, 0, (8, 1, 1, 1)).max_words_communicated
        assert split < flat


class TestMeasuredAgainstLowerBounds:
    @pytest.mark.parametrize("n_procs,grid", [(4, (1, 2, 2)), (8, (2, 2, 2)), (16, (4, 2, 2))])
    def test_sends_plus_receives_respect_lower_bound(self, n_procs, grid):
        shape, rank = (16, 16, 16), 4
        tensor, factors = problem(shape, rank, seed=13)
        result = stationary_mttkrp(tensor, factors, 0, grid)
        machine = result.machine
        sends_plus_receives = int(
            np.max(machine.words_sent + machine.words_received)
        )
        bound = combined_parallel_lower_bound(shape, rank, n_procs).combined
        assert sends_plus_receives >= bound - 1e-9


class TestThreadedLocalMTTKRPs:
    """Simulated ranks are independent tasks: threads change nothing counted.

    Line 6/7's per-rank local MTTKRPs fan out on the thread executor while
    the machine's flop/storage counters are charged serially afterwards —
    so outputs AND ledgers must be bitwise identical for every thread count.
    """

    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_stationary_bitwise_and_ledger_invariant(self, threads):
        tensor, factors = problem((8, 6, 4), 3, seed=7)
        serial = stationary_mttkrp(tensor, factors, 1, (2, 3, 2), threads=1)
        threaded = stationary_mttkrp(tensor, factors, 1, (2, 3, 2), threads=threads)
        assert threaded.assemble().tobytes() == serial.assemble().tobytes()
        for field in ("words_sent", "words_received", "flops", "storage_high_water"):
            np.testing.assert_array_equal(
                getattr(threaded.machine, field), getattr(serial.machine, field)
            )

    @pytest.mark.parametrize("threads", [2, 5])
    def test_general_bitwise_and_ledger_invariant(self, threads):
        tensor, factors = problem((8, 6, 4), 4, seed=8)
        serial = general_mttkrp(tensor, factors, 0, (2, 2, 1, 2), threads=1)
        threaded = general_mttkrp(tensor, factors, 0, (2, 2, 1, 2), threads=threads)
        assert threaded.assemble().tobytes() == serial.assemble().tobytes()
        for field in ("words_sent", "words_received", "flops", "storage_high_water"):
            np.testing.assert_array_equal(
                getattr(threaded.machine, field), getattr(serial.machine, field)
            )


LEDGER_FIELDS = (
    "words_sent",
    "words_received",
    "messages_sent",
    "flops",
    "storage_high_water",
)


class TestSweepKernels:
    """Algorithms 3 and 4 as sweep kernels: one scatter, the same per-call step."""

    @pytest.mark.parametrize(
        "kernel_class, per_call, grid",
        [
            (StationaryKernel, stationary_mttkrp, (2, 3, 1)),
            (StationaryKernel, stationary_mttkrp, (1, 2, 2)),
            (GeneralKernel, general_mttkrp, (2, 1, 2, 1)),
            (GeneralKernel, general_mttkrp, (1, 2, 2, 1)),
        ],
    )
    def test_matches_per_call_function_bitwise(self, kernel_class, per_call, grid):
        tensor, factors = problem((8, 6, 4), 4, seed=14)
        kernel = kernel_class(grid, threads=2)
        machine = SimulatedMachine(kernel.grid.n_procs)
        for mode in (0, 1, 2, 0):
            out = kernel.mttkrp(tensor, factors, mode)
            reference = per_call(tensor, factors, mode, grid, machine=machine)
            assert out.tobytes() == reference.assemble().tobytes()
        for field in LEDGER_FIELDS:
            np.testing.assert_array_equal(
                getattr(kernel.machine, field), getattr(machine, field)
            )
        assert [(r.kind, r.label, r.words_per_rank) for r in kernel.machine.records] == [
            (r.kind, r.label, r.words_per_rank) for r in machine.records
        ]

    @pytest.mark.parametrize(
        "kernel_class, grid",
        [
            (StationaryKernel, (2, 2, 1)),
            (GeneralKernel, (2, 1, 2, 1)),
            (DistributedDimtreeKernel, (2, 2, 1)),
            (DistributedSampledDimtreeKernel, (2, 2, 1)),
        ],
    )
    def test_scatters_once_per_tensor_and_rank(self, kernel_class, grid):
        tensor, factors = problem((8, 6, 4), 2, seed=15)
        _, wider = problem((8, 6, 4), 3, seed=16)
        kernel = kernel_class(grid)
        with tracing() as session:
            for mode in (0, 1, 2, 0, 1, 2):
                kernel.mttkrp(tensor, factors, mode)
            scatters = [session.metrics.counters()["parallel.tensor_scatter"]]
            kernel.mttkrp(tensor.data.copy(), factors, 0)
            scatters.append(session.metrics.counters()["parallel.tensor_scatter"])
            kernel.mttkrp(tensor, wider, 0)
            scatters.append(session.metrics.counters()["parallel.tensor_scatter"])
        assert scatters == [1, 2, 3]


OVERSIZED_GRID_CALLS = {
    "stationary_mttkrp": lambda x, f, m: stationary_mttkrp(x, f, 0, (7, 1, 1), machine=m),
    "general_mttkrp": lambda x, f, m: general_mttkrp(x, f, 0, (1, 7, 1, 1), machine=m),
    "StationaryKernel": lambda x, f, m: StationaryKernel((7, 1, 1), machine=m).mttkrp(x, f, 0),
    "GeneralKernel": lambda x, f, m: GeneralKernel((1, 7, 1, 1), machine=m).mttkrp(x, f, 0),
    "DistributedDimtreeKernel": lambda x, f, m: DistributedDimtreeKernel(
        (7, 1, 1), machine=m
    ).mttkrp(x, f, 0),
    "DistributedSampledDimtreeKernel": lambda x, f, m: DistributedSampledDimtreeKernel(
        (7, 1, 1), machine=m, seed=0
    ).mttkrp(x, f, 0),
}


class TestOversizedGrids:
    """A grid with more parts than indices fails before any collective."""

    @pytest.mark.parametrize("name", sorted(OVERSIZED_GRID_CALLS))
    def test_mode_split_into_more_parts_than_indices(self, name):
        tensor, factors = problem((6, 5, 4), 2, seed=17)
        machine = SimulatedMachine(7)
        with pytest.raises(
            DistributionError,
            match=r"grid \((1, )?7, 1, 1\) splits mode 0 \(extent 6\) into 7 parts",
        ):
            OVERSIZED_GRID_CALLS[name](tensor, factors, machine)
        assert machine.records == []
        assert machine.flops.sum() == 0

    def test_rank_split_into_more_parts_than_columns(self):
        tensor, factors = problem((6, 5, 4), 2, seed=18)
        machine = SimulatedMachine(3)
        with pytest.raises(
            DistributionError,
            match=r"grid \(3, 1, 1, 1\) splits the rank dimension \(extent 2\) into 3 parts",
        ):
            general_mttkrp(tensor, factors, 0, (3, 1, 1, 1), machine=machine)
        assert machine.records == []
