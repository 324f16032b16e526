"""Unit tests for CP-ALS on the simulated parallel machine."""

import inspect

import numpy as np
import pytest

from repro.cp.als import cp_als
from repro.cp.parallel_als import PARALLEL_KERNEL_NAMES, parallel_cp_als
from repro.exceptions import DistributionError, ParameterError
from repro.observe import tracing
from repro.parallel.dimtree import (
    DistributedDimtreeKernel,
    predicted_dimtree_ledger,
    predicted_dimtree_sweep_words,
)
from repro.parallel.grid_selection import choose_general_grid
from repro.parallel.machine import SimulatedMachine
from repro.resilience import CheckpointStore, poison_kernel_cache
from repro.tensor.random import noisy_low_rank_tensor, random_low_rank_tensor, random_tensor

#: The kernels that run on a scattered tensor.
SCATTERING_KERNELS = ["exact", "general", "dimtree", "sampled-dimtree"]


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
        result = parallel_cp_als(
            tensor, 2, n_procs=8, kernel="exact", n_iter_max=4, tol=0.0, seed=3
        )
        assert len(set(result.words_per_iteration)) == 1

    def test_general_algorithm_option(self, tensor):
        result = parallel_cp_als(
            tensor, 2, n_procs=8, kernel="general", n_iter_max=2, tol=0.0, seed=4
        )
        assert result.algorithm == "general"
        assert result.als.final_fit > 0.5

    def test_recovers_low_rank_tensor(self, tensor):
        result = parallel_cp_als(tensor, 2, n_procs=4, n_iter_max=80, tol=1e-12, seed=5)
        assert result.als.final_fit > 0.999

    def test_single_processor_has_no_communication(self, tensor):
        result = parallel_cp_als(tensor, 2, n_procs=1, n_iter_max=2, tol=0.0, seed=6)
        assert result.total_words == 0

    @pytest.mark.parametrize("kernel", ["exact", "dimtree", "sampled-dimtree"])
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"n_iter_max": -1}, "n_iter_max"),
            ({"tol": float("nan")}, "tol"),
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

    @pytest.mark.parametrize("kernel", SCATTERING_KERNELS)
    def test_grid_with_more_parts_than_indices_fails_before_the_loop(self, kernel):
        """P=7 on a 6x5x4 tensor picks a grid that splits mode 2 seven ways."""
        machine = SimulatedMachine(7)
        with tracing() as session:
            with pytest.raises(
                DistributionError, match=r"splits mode 2 \(extent 4\) into 7 parts"
            ):
                parallel_cp_als(
                    random_tensor((6, 5, 4), seed=10), 2, 7,
                    kernel=kernel, machine=machine,
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

    @pytest.mark.parametrize("kernel", SCATTERING_KERNELS)
    def test_tensor_scattered_once_per_run_and_once_per_resume(self, kernel):
        tensor = random_tensor((6, 5, 4), seed=11)
        kwargs = dict(kernel=kernel, n_iter_max=3, tol=0.0, seed=3)
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

    @pytest.mark.parametrize("kernel", ["exact", "general"])
    def test_threads_leave_fits_and_ledger_bitwise(self, tensor, kernel):
        """Per-rank local MTTKRPs fan out on threads; nothing observable moves."""
        serial = parallel_cp_als(
            tensor, 2, n_procs=8, kernel=kernel,
            n_iter_max=4, tol=0.0, seed=8, threads=1,
        )
        threaded = parallel_cp_als(
            tensor, 2, n_procs=8, kernel=kernel,
            n_iter_max=4, tol=0.0, seed=8, threads=4,
        )
        assert np.array_equal(serial.als.fits, threaded.als.fits)
        assert serial.words_per_iteration == threaded.words_per_iteration
        for field in ("words_sent", "words_received", "flops", "storage_high_water"):
            np.testing.assert_array_equal(
                getattr(serial.machine, field), getattr(threaded.machine, field)
            )


class TestDefaultKernel:
    """A call that names no kernel runs the distributed dimension tree."""

    def test_signature_defaults_to_dimtree_without_algorithm(self):
        parameters = inspect.signature(parallel_cp_als).parameters
        assert parameters["kernel"].default == "dimtree"
        assert "algorithm" not in parameters
        with pytest.raises(TypeError, match="algorithm"):
            parallel_cp_als(random_tensor((6, 5, 4), seed=0), 2, 4, algorithm="general")

    @pytest.mark.parametrize(
        "shape, rank, n_procs", [((12, 10, 8), 3, 8), ((6, 5, 4, 5), 2, 6)]
    )
    def test_default_is_bitwise_dimtree(self, shape, rank, n_procs):
        data = noisy_low_rank_tensor(shape, rank, noise_level=0.05, seed=1)
        kwargs = dict(n_iter_max=4, tol=0.0, seed=2)
        default = parallel_cp_als(data, rank, n_procs, **kwargs)
        tree = parallel_cp_als(data, rank, n_procs, kernel="dimtree", **kwargs)
        assert default.als.fits == tree.als.fits
        assert np.array_equal(default.als.model.weights, tree.als.model.weights)
        for a, b in zip(default.als.model.factors, tree.als.model.factors):
            assert np.array_equal(a, b)
        assert default.words_per_iteration == tree.words_per_iteration
        assert np.array_equal(default.machine.words_sent, tree.machine.words_sent)

    def test_default_ledger_is_the_dimtree_replay(self):
        shape, rank, n_sweeps = (12, 10, 8), 3, 4
        data = noisy_low_rank_tensor(shape, rank, noise_level=0.05, seed=3)
        result = parallel_cp_als(data, rank, 8, n_iter_max=n_sweeps, tol=0.0, seed=4)
        grid = result.grids[0]
        predicted = predicted_dimtree_ledger(shape, rank, grid, n_sweeps)
        assert np.array_equal(result.machine.words_sent, predicted)
        assert np.array_equal(result.machine.words_received, predicted)
        assert result.words_per_iteration[-1] == predicted_dimtree_sweep_words(
            shape, rank, grid
        )

    def test_general_kernel_runs_algorithm_4_on_its_grid(self):
        shape, rank, n_procs = (4, 4, 4), 8, 8
        result = parallel_cp_als(
            random_tensor(shape, seed=5), rank, n_procs, kernel="general",
            n_iter_max=2, tol=0.0, seed=6,
        )
        assert result.algorithm == "general"
        assert result.grids == [choose_general_grid(shape, rank, n_procs)]
        assert result.grids[0][0] > 1  # the rank dimension is split
        assert any(r.label == "all_gather X fiber" for r in result.machine.records)


class _PoisonedSweepTwo(DistributedDimtreeKernel):
    """The distributed tree with every cached partial poisoned after sweep 2's
    second MTTKRP, so mode 2 is served a corrupted partial."""

    def begin_sweep(self, iteration):
        super().begin_sweep(iteration)
        self._sweep, self._calls = iteration, 0

    def mttkrp(self, tensor, factors, mode):
        out = super().mttkrp(tensor, factors, mode)
        self._calls += 1
        if self._sweep == 2 and self._calls == 2:
            assert poison_kernel_cache(self)
        return out


class TestSweepWords:
    """``words_per_iteration`` holds each sweep's own max-per-rank words."""

    @pytest.fixture(scope="class")
    def tensor(self):
        return random_low_rank_tensor((10, 9, 8), 3, seed=2)

    @pytest.mark.parametrize("kernel", PARALLEL_KERNEL_NAMES)
    def test_reused_machine_records_only_this_runs_words(self, tensor, kernel):
        kwargs = dict(kernel=kernel, n_iter_max=3, tol=0.0, seed=1)
        fresh = parallel_cp_als(tensor, 3, 4, **kwargs)
        machine = SimulatedMachine(4)
        parallel_cp_als(tensor, 3, 4, machine=machine, **kwargs)
        second = parallel_cp_als(tensor, 3, 4, machine=machine, **kwargs)
        assert second.words_per_iteration == fresh.words_per_iteration

    def test_retry_recompute_stays_in_its_sweep(self, tensor, monkeypatch):
        kwargs = dict(n_iter_max=5, tol=0.0, seed=1)
        clean = parallel_cp_als(tensor, 3, 4, **kwargs)
        monkeypatch.setattr(
            "repro.cp.parallel_als.DistributedDimtreeKernel", _PoisonedSweepTwo
        )
        retried = parallel_cp_als(tensor, 3, 4, on_fault="retry", **kwargs)
        assert retried.als.mttkrp_calls == 16
        assert retried.als.fits == clean.als.fits
        words, clean_words = retried.words_per_iteration, clean.words_per_iteration
        # The recompute's re-gathers are charged to sweep 2 and to no other.
        assert words[1] > clean_words[1]
        assert words[:1] + words[2:] == clean_words[:1] + clean_words[2:]
        assert sum(words) == retried.total_words

    def test_each_sweep_records_its_own_max_per_rank_words(self, tensor):
        """The oracle reruns sweep ``s`` alone, resumed onto a fresh machine."""
        kwargs = dict(kernel="sampled-tree", n_samples=32, tol=0.0, seed=1)
        store = CheckpointStore()
        run = parallel_cp_als(tensor, 3, 4, n_iter_max=6, checkpoint_store=store, **kwargs)
        alone = [parallel_cp_als(tensor, 3, 4, n_iter_max=1, **kwargs).total_words]
        for sweep in range(2, 7):
            resumed = parallel_cp_als(
                tensor, 3, 4, n_iter_max=sweep, resume_from=store.at_sweep(sweep - 1),
                **kwargs,
            )
            alone.append(resumed.total_words)
        assert run.words_per_iteration == alone

    def test_resume_records_the_uninterrupted_tail(self, tensor):
        kwargs = dict(kernel="sampled-tree", n_samples=32, n_iter_max=5, tol=0.0, seed=5)
        store = CheckpointStore()
        run = parallel_cp_als(tensor, 3, 4, checkpoint_store=store, **kwargs)
        resumed = parallel_cp_als(tensor, 3, 4, resume_from=store.at_sweep(2), **kwargs)
        assert resumed.als.fits == run.als.fits
        assert resumed.words_per_iteration == run.words_per_iteration[2:]
