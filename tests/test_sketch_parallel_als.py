"""Unit tests for distributed randomized CP-ALS and the parallel kernel registry."""

import numpy as np
import pytest

from repro.cp.als import cp_als
from repro.cp.parallel_als import PARALLEL_KERNEL_NAMES, parallel_cp_als
from repro.exceptions import ParameterError
from repro.observe import tracing
from repro.parallel.machine import SimulatedMachine
from repro.parallel.stationary import stationary_mttkrp
from repro.sketch.parallel import randomized_als as parallel_randomized_als
from repro.sketch.parallel.randomized_als import parallel_randomized_cp_als
from repro.sketch.randomized_als import _weighted_init, randomized_cp_als
from repro.tensor.random import random_low_rank_tensor


@pytest.fixture(scope="module")
def tensor():
    return random_low_rank_tensor((10, 9, 8), 3, seed=2)


class TestParallelRandomizedCPALS:
    def test_matches_sequential_randomized_fits(self, tensor):
        """Same seed, same draws: the distributed sketched run reproduces the
        sequential randomized driver's fit trajectory to machine precision."""
        sequential = randomized_cp_als(
            tensor, 3, n_samples=64, distribution="product-leverage",
            seed=7, n_iter_max=5, tol=0.0,
        )
        parallel = parallel_randomized_cp_als(
            tensor, 3, 6, n_samples=64, distribution="product-leverage",
            seed=7, n_iter_max=5, tol=0.0,
        )
        assert np.allclose(parallel.sketched.fits, sequential.sketched.fits, atol=1e-9)
        assert parallel.used_fallback == sequential.used_fallback
        assert np.isclose(parallel.exact_fit, sequential.exact_fit, atol=1e-9)

    def test_seed_reproducibility(self, tensor):
        a = parallel_randomized_cp_als(tensor, 3, 4, n_samples=32, seed=3, n_iter_max=4, tol=0.0)
        b = parallel_randomized_cp_als(tensor, 3, 4, n_samples=32, seed=3, n_iter_max=4, tol=0.0)
        assert a.sketched.fits == b.sketched.fits
        assert a.total_words == b.total_words
        assert a.words_per_iteration == b.words_per_iteration

    def test_communication_recorded_per_sweep(self, tensor):
        result = parallel_randomized_cp_als(
            tensor, 3, 6, n_samples=32, seed=1, n_iter_max=3, tol=0.0
        )
        assert result.total_words > 0
        assert len(result.words_per_iteration) == 3
        assert all(w > 0 for w in result.words_per_iteration)
        assert result.n_iterations == 3
        assert result.mttkrp_calls == 9

    def test_resampling_varies_words(self, tensor):
        """Per-iteration resampling: sweeps may charge different word counts
        (sample spread differs draw to draw), unlike the exact driver."""
        result = parallel_randomized_cp_als(
            tensor, 3, 6, n_samples=16, distribution="uniform",
            seed=0, n_iter_max=4, tol=0.0, charge_setup=False,
        )
        assert len(result.words_per_iteration) == 4

    def test_fallback_polishes_on_same_machine(self, tensor):
        result = parallel_randomized_cp_als(
            tensor, 3, 6, n_samples=16, seed=7, n_iter_max=2, tol=0.0,
            min_fit=1.01, fallback_sweeps=3,
        )
        assert result.used_fallback
        assert result.fallback is not None
        assert result.fallback_words > 0
        assert result.exact_fit > 0.5
        assert result.n_iterations == 2 + result.fallback.n_iterations

    def test_fallback_scatters_once_and_matches_per_call_algorithm_3(self, tensor):
        """The fallback's sweep kernel equals per-call stationary_mttkrp bitwise."""
        with tracing() as session:
            result = parallel_randomized_cp_als(
                tensor, 3, 6, n_samples=16, seed=7, n_iter_max=2, tol=0.0,
                min_fit=1.01, fallback_sweeps=3,
            )
        assert session.metrics.counters()["parallel.tensor_scatter"] == 1
        machine = SimulatedMachine(6)

        def per_call(local_tensor, factors, mode):
            return stationary_mttkrp(
                local_tensor, factors, mode, result.grid, machine=machine
            ).assemble()

        reference = cp_als(
            tensor, 3, n_iter_max=3, tol=0.0,
            init=_weighted_init(result.sketched.model), kernel=per_call,
        )
        assert result.fallback.fits == reference.fits
        for a, b in zip(result.fallback.model.factors, reference.model.factors):
            assert np.array_equal(a, b)
        assert result.fallback_words == machine.max_words_communicated

    def test_no_fallback_when_fit_reached(self, tensor):
        result = parallel_randomized_cp_als(
            tensor, 3, 4, n_samples=128, seed=7, n_iter_max=10, tol=0.0,
            min_fit=-1.0, fallback_sweeps=3,
        )
        assert not result.used_fallback
        assert result.fallback is None
        assert result.fallback_words == 0

    def test_explicit_grid(self, tensor):
        result = parallel_randomized_cp_als(
            tensor, 3, 6, n_samples=16, seed=1, n_iter_max=2, tol=0.0,
            grid_dims=(6, 1, 1),
        )
        assert result.grid == (6, 1, 1)

    def test_invalid_distribution(self, tensor):
        with pytest.raises(ParameterError):
            parallel_randomized_cp_als(tensor, 3, 4, distribution="importance")

    @pytest.mark.parametrize(
        "options,name",
        [
            ({"min_fit": 0.999, "fallback_sweeps": -1}, "fallback_sweeps"),
            ({"min_fit": 0.999, "fallback_sweeps": 2.5}, "fallback_sweeps"),
            ({"min_fit": float("nan")}, "min_fit"),
            ({"min_fit": "0.5"}, "min_fit"),
            ({"n_samples": 0}, "n_samples"),
            ({"n_samples": 2.5}, "n_samples"),
            ({"min_fit": True}, "min_fit"),
            ({"min_fit": float("inf")}, "min_fit"),
            ({"min_fit": 0.5, "fallback_sweeps": None}, "fallback_sweeps"),
        ],
    )
    def test_bad_options_fail_before_the_sketched_run(self, tensor, monkeypatch, options, name):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sketched run started")

        monkeypatch.setattr(parallel_randomized_als, "cp_als", no_sweep)
        with pytest.raises(ParameterError, match=name):
            parallel_randomized_cp_als(tensor, 3, 4, n_iter_max=3, seed=0, **options)

    @pytest.mark.parametrize(
        "options,used_fallback",
        [
            ({"n_samples": np.int64(40)}, False),
            ({"min_fit": 0}, False),
            ({"min_fit": np.float64(1.1), "fallback_sweeps": np.int64(2)}, True),
        ],
    )
    def test_numpy_and_int_options_accepted(self, tensor, options, used_fallback):
        result = parallel_randomized_cp_als(tensor, 3, 4, n_iter_max=3, seed=0, **options)
        assert result.used_fallback is used_fallback
        if "n_samples" in options:
            assert result.n_samples == 40
        if used_fallback:
            assert result.fallback.n_iterations <= 2


class TestParallelKernelRegistry:
    def test_registry_names(self):
        assert PARALLEL_KERNEL_NAMES == (
            "exact",
            "general",
            "dimtree",
            "sampled",
            "sampled-tree",
            "sampled-dimtree",
        )

    def test_sampled_kernel_runs(self, tensor):
        result = parallel_cp_als(
            tensor, 3, n_procs=6, kernel="sampled", n_samples=64,
            n_iter_max=3, tol=0.0, seed=1,
        )
        assert result.algorithm == "stationary"
        assert result.total_words > 0
        assert len(result.words_per_iteration) == 3

    def test_sampled_seed_reproducible(self, tensor):
        a = parallel_cp_als(tensor, 3, n_procs=4, kernel="sampled", n_samples=32,
                            n_iter_max=2, tol=0.0, seed=5)
        b = parallel_cp_als(tensor, 3, n_procs=4, kernel="sampled", n_samples=32,
                            n_iter_max=2, tol=0.0, seed=5)
        assert a.als.fits == b.als.fits
        assert a.total_words == b.total_words

    def test_unknown_kernel_rejected(self, tensor):
        with pytest.raises(ParameterError):
            parallel_cp_als(tensor, 3, n_procs=4, kernel="sketchy")

    @pytest.mark.parametrize("kernel", PARALLEL_KERNEL_NAMES)
    def test_unknown_sample_distribution_rejected_by_every_kernel(self, tensor, kernel):
        with pytest.raises(ParameterError, match="unknown sampling distribution 'bogus'"):
            parallel_cp_als(
                tensor, 3, n_procs=4, kernel=kernel, sample_distribution="bogus", n_iter_max=2
            )

    def test_exact_kernel_unchanged(self, tensor):
        """Algorithm 3 is byte-compatible with the pre-registry driver."""
        result = parallel_cp_als(
            tensor, 3, n_procs=4, kernel="exact", n_iter_max=2, tol=0.0, seed=1
        )
        assert result.als.final_fit > 0.5
