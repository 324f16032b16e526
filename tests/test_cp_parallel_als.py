"""Unit tests for CP-ALS on the simulated parallel machine."""

import numpy as np
import pytest

from repro.cp.als import cp_als
from repro.cp.parallel_als import parallel_cp_als
from repro.exceptions import DistributionError, ParameterError
from repro.observe import tracing
from repro.parallel.machine import SimulatedMachine
from repro.resilience import CheckpointStore
from repro.tensor.random import random_low_rank_tensor, random_tensor

#: The (kernel, algorithm) pairs that run on a scattered tensor.
SCATTERING_KERNELS = [
    pytest.param("exact", "stationary", id="exact-stationary"),
    pytest.param("exact", "general", id="exact-general"),
    pytest.param("dimtree", "stationary", id="dimtree"),
    pytest.param("sampled-dimtree", "stationary", id="sampled-dimtree"),
]


class TestParallelCPALS:
    @pytest.fixture(scope="class")
    def tensor(self):
        return random_low_rank_tensor((8, 8, 8), 2, seed=0)

    def test_matches_sequential_fits(self, tensor):
        sequential = cp_als(tensor, 2, n_iter_max=5, tol=0.0, seed=1)
        parallel = parallel_cp_als(tensor, 2, n_procs=8, n_iter_max=5, tol=0.0, seed=1)
        assert np.allclose(parallel.als.fits, sequential.fits, atol=1e-8)

    def test_communication_recorded(self, tensor):
        result = parallel_cp_als(tensor, 2, n_procs=8, n_iter_max=3, tol=0.0, seed=2)
        assert result.total_words > 0
        assert len(result.words_per_iteration) == 3
        assert all(w > 0 for w in result.words_per_iteration)

    def test_words_per_iteration_constant(self, tensor):
        """Every ALS sweep performs the same MTTKRPs, hence the same communication."""
        result = parallel_cp_als(tensor, 2, n_procs=8, n_iter_max=4, tol=0.0, seed=3)
        assert len(set(result.words_per_iteration)) == 1

    def test_general_algorithm_option(self, tensor):
        result = parallel_cp_als(
            tensor, 2, n_procs=8, algorithm="general", n_iter_max=2, tol=0.0, seed=4
        )
        assert result.algorithm == "general"
        assert result.als.final_fit > 0.5

    def test_recovers_low_rank_tensor(self, tensor):
        result = parallel_cp_als(tensor, 2, n_procs=4, n_iter_max=80, tol=1e-12, seed=5)
        assert result.als.final_fit > 0.999

    def test_single_processor_has_no_communication(self, tensor):
        result = parallel_cp_als(tensor, 2, n_procs=1, n_iter_max=2, tol=0.0, seed=6)
        assert result.total_words == 0

    def test_invalid_algorithm(self, tensor):
        with pytest.raises(ParameterError):
            parallel_cp_als(tensor, 2, n_procs=4, algorithm="hybrid")

    @pytest.mark.parametrize("kernel", ["exact", "dimtree", "sampled-dimtree"])
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"n_iter_max": -1}, "n_iter_max"),
            ({"tol": float("nan")}, "tol"),
            ({"invalidation_tol": -1}, "invalidation_tol"),
            ({"invalidation": "bogus"}, "invalidation"),
            ({"threads": 0}, "threads"),
            ({"init": [np.ones((7, 2)), np.ones((5, 2)), np.ones((4, 2))]}, "mode 0"),
            ({"init": [np.ones((6, 2)), np.ones((5, 2)), np.ones((4, 3))]}, "mode 2"),
            ({"n_samples": 0}, "n_samples"),
            ({"n_samples": -3}, "n_samples"),
            ({"n_samples": 2.5}, "n_samples"),
            ({"n_samples": True}, "n_samples"),
        ],
    )
    def test_bad_driver_arguments_rejected_before_any_work(self, kernel, kwargs, match):
        """The sequential driver's argument check runs before any collective."""
        machine = SimulatedMachine(4)
        tensor = random_tensor((6, 5, 4), seed=8)
        with pytest.raises(ParameterError, match=match):
            parallel_cp_als(tensor, 2, n_procs=4, kernel=kernel, machine=machine, **kwargs)
        assert machine.max_words_communicated == 0

    @pytest.mark.parametrize("kernel, algorithm", SCATTERING_KERNELS)
    def test_grid_with_more_parts_than_indices_fails_before_the_loop(self, kernel, algorithm):
        """P=7 on a 6x5x4 tensor picks a grid that splits mode 2 seven ways."""
        machine = SimulatedMachine(7)
        with tracing() as session:
            with pytest.raises(
                DistributionError, match=r"splits mode 2 \(extent 4\) into 7 parts"
            ):
                parallel_cp_als(
                    random_tensor((6, 5, 4), seed=10), 2, 7,
                    kernel=kernel, algorithm=algorithm, machine=machine,
                )
        assert session.spans_named("sweep") == []
        assert machine.records == []

    @pytest.mark.parametrize("kernel", ["sampled", "sampled-tree"])
    def test_sampled_kernels_run_on_empty_blocks(self, kernel):
        result = parallel_cp_als(
            random_tensor((6, 5, 4), seed=10), 2, 7, kernel=kernel, n_iter_max=2, tol=0.0
        )
        assert result.grids == [(1, 1, 7)]
        assert len(result.als.fits) == 2
        assert np.all(np.isfinite(result.als.fits))

    @pytest.mark.parametrize("kernel, algorithm", SCATTERING_KERNELS)
    def test_tensor_scattered_once_per_run_and_once_per_resume(self, kernel, algorithm):
        tensor = random_tensor((6, 5, 4), seed=11)
        kwargs = dict(kernel=kernel, algorithm=algorithm, n_iter_max=3, tol=0.0, seed=3)
        store = CheckpointStore()
        with tracing() as session:
            parallel_cp_als(tensor, 2, 4, checkpoint_store=store, **kwargs)
        assert session.metrics.counters()["parallel.tensor_scatter"] == 1
        with tracing() as session:
            parallel_cp_als(random_tensor((6, 5, 4), seed=12), 2, 4, **kwargs)
            parallel_cp_als(tensor, 2, 4, resume_from=store.at_sweep(1), **kwargs)
        assert session.metrics.counters()["parallel.tensor_scatter"] == 2

    def test_grid_recorded(self, tensor):
        result = parallel_cp_als(tensor, 2, n_procs=8, n_iter_max=1, tol=0.0, seed=7)
        assert len(result.grids) == 1
        assert int(np.prod(result.grids[0])) == 8

    @pytest.mark.parametrize("algorithm", ["stationary", "general"])
    def test_threads_leave_fits_and_ledger_bitwise(self, tensor, algorithm):
        """Per-rank local MTTKRPs fan out on threads; nothing observable moves."""
        serial = parallel_cp_als(
            tensor, 2, n_procs=8, algorithm=algorithm,
            n_iter_max=4, tol=0.0, seed=8, threads=1,
        )
        threaded = parallel_cp_als(
            tensor, 2, n_procs=8, algorithm=algorithm,
            n_iter_max=4, tol=0.0, seed=8, threads=4,
        )
        assert np.array_equal(serial.als.fits, threaded.als.fits)
        assert serial.words_per_iteration == threaded.words_per_iteration
        for field in ("words_sent", "words_received", "flops", "storage_high_water"):
            np.testing.assert_array_equal(
                getattr(serial.machine, field), getattr(threaded.machine, field)
            )
