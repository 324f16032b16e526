"""Sketched CP-ALS on the two ALS drivers, and the parallel kernel registry.

Sketched CP-ALS (CP-ARLS-LEV) is ``cp_als`` or ``parallel_cp_als`` on a
sampled kernel, resampled on every MTTKRP.
"""

import numpy as np
import pytest

from repro.core.sampled_dimtree import FUSED_DISTRIBUTIONS, SampledDimtreeKernel
from repro.cp.als import cp_als
from repro.cp.initialization import initialize_factors
from repro.cp.parallel_als import PARALLEL_KERNEL_NAMES, parallel_cp_als
from repro.exceptions import ParameterError
from repro.tensor.random import random_low_rank_tensor


#: The kernel names of both registries that draw samples.
SAMPLED_KERNELS = ["sampled", "sampled-tree", "sampled-dimtree"]


@pytest.fixture(scope="module")
def tensor():
    return random_low_rank_tensor((10, 9, 8), 3, seed=2)


def _sketched(driver, tensor, kernel, **kwargs):
    """The :class:`CPALSResult` of a five-sweep run of ``driver`` on ``kernel``."""
    if driver == "cp_als":
        return cp_als(tensor, 3, kernel=kernel, n_iter_max=5, tol=0.0, **kwargs)
    return parallel_cp_als(
        tensor, 3, 4, kernel=kernel, n_iter_max=5, tol=0.0, **kwargs
    ).als


def _per_call(n_samples, rng):
    """The per-call product-leverage kernel that ``kernel="sampled"`` builds."""
    return SampledDimtreeKernel(
        n_samples, distribution="product-leverage", cache=False, seed=rng
    )


def _weighted_factors(model):
    """The model's factors with its weights folded into factor 0."""
    factors = [f.copy() for f in model.factors]
    factors[0] = factors[0] * model.weights[None, :]
    return factors


class TestSketchedCPALS:
    @pytest.mark.parametrize("n_procs", [4, 6])
    @pytest.mark.parametrize("kernel", ["sampled", "sampled-tree"])
    def test_sequential_and_distributed_runs_agree(self, tensor, kernel, n_procs):
        """Same seed, same draws: the distributed run retraces the sequential one."""
        kwargs = dict(kernel=kernel, n_iter_max=5, tol=0.0, seed=7)
        sequential = cp_als(tensor, 3, **kwargs)
        parallel = parallel_cp_als(tensor, 3, n_procs, **kwargs).als
        assert np.allclose(parallel.fits, sequential.fits, rtol=0.0, atol=1e-9)
        for a, b in zip(parallel.model.factors, sequential.model.factors):
            assert np.allclose(a, b, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize(
        "kernel, distribution",
        [("sampled", "product-leverage"), ("sampled-tree", "tree-leverage")],
    )
    def test_distributed_run_draws_the_named_distribution(self, tensor, kernel, distribution):
        """Each distributed kernel name draws what a per-call sampled kernel
        draws under the distribution that the same name picks in ``cp_als``."""
        draws = np.random.default_rng(np.random.SeedSequence(7).spawn(1)[0])
        per_call = SampledDimtreeKernel(distribution=distribution, cache=False, seed=draws)
        sequential = cp_als(tensor, 3, kernel=per_call, n_iter_max=5, tol=0.0, seed=7)
        parallel = parallel_cp_als(
            tensor, 3, 6, kernel=kernel, n_iter_max=5, tol=0.0, seed=7
        ).als
        assert np.allclose(parallel.fits, sequential.fits, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("kernel", SAMPLED_KERNELS)
    @pytest.mark.parametrize("driver", ["cp_als", "parallel_cp_als"])
    def test_generator_seed_is_one_stream(self, tensor, driver, kernel):
        """The initialisation reads the generator first; the draws continue it."""
        shared = _sketched(driver, tensor, kernel, seed=np.random.default_rng(11))
        rng = np.random.default_rng(11)
        init = initialize_factors(tensor, 3, method="random", seed=rng)
        continued = _sketched(driver, tensor, kernel, init=init, seed=rng)
        assert shared.fits == continued.fits

    @pytest.mark.parametrize("kernel", SAMPLED_KERNELS)
    @pytest.mark.parametrize("driver", ["cp_als", "parallel_cp_als"])
    def test_int_seed_spawns_a_separate_draw_stream(self, tensor, driver, kernel):
        named = _sketched(driver, tensor, kernel, seed=7)
        init = initialize_factors(tensor, 3, method="random", seed=7)
        draws = np.random.default_rng(np.random.SeedSequence(7).spawn(1)[0])
        spelled = _sketched(driver, tensor, kernel, init=init, seed=draws)
        assert named.fits == spelled.fits

    @pytest.mark.parametrize("seed", range(20))
    def test_sampled_run_never_stops_on_its_estimated_fit(self, tensor, seed):
        """A sampled sweep's fit is an estimate, often exactly 1.0, so ``tol``
        does not stop the run: it completes ``n_iter_max`` sweeps."""
        result = cp_als(tensor, 3, kernel="sampled", seed=seed, tol=1e-6)
        assert (result.converged, result.n_iterations) == (False, 50)

    @pytest.mark.parametrize("kernel", [*SAMPLED_KERNELS, "dimtree"])
    @pytest.mark.parametrize("driver", ["cp_als", "parallel_cp_als"])
    def test_tol_stops_exact_kernels_only(self, tensor, driver, kernel):
        """``tol=1`` stops an exact run after sweep 2; a sampled run goes on."""
        options = dict(kernel=kernel, n_iter_max=4, tol=1.0, seed=7)
        if driver == "cp_als":
            result = cp_als(tensor, 3, **options)
        else:
            result = parallel_cp_als(tensor, 3, 4, **options).als
        expected = (True, 2) if kernel == "dimtree" else (False, 4)
        assert (result.converged, result.n_iterations) == expected

    def test_per_call_sampled_kernel_is_not_exact(self, tensor):
        kernel = SampledDimtreeKernel(64, cache=False, seed=0)
        assert kernel.exact is False
        result = cp_als(tensor, 3, kernel=kernel, n_iter_max=4, tol=1.0, seed=7)
        assert (result.converged, result.n_iterations) == (False, 4)

    @pytest.mark.parametrize("distribution", FUSED_DISTRIBUTIONS)
    def test_every_distribution_runs_through_the_per_call_kernel(self, tensor, distribution):
        rng = np.random.default_rng(7)
        kernel = SampledDimtreeKernel(512, distribution=distribution, cache=False, seed=rng)
        result = cp_als(tensor, 3, kernel=kernel, seed=rng, n_iter_max=5, tol=0.0)
        assert result.mttkrp_calls == 15
        assert result.model.fit(tensor) > 0.5

    def test_recovers_low_rank_tensor(self):
        data = random_low_rank_tensor((16, 14, 12), 3, seed=0)
        rng = np.random.default_rng(1)
        result = cp_als(
            data, 3, kernel=_per_call(2000, rng), seed=rng,
            n_iter_max=40, tol=1e-6,
        )
        assert result.model.fit(data) > 0.9

    def test_exact_polish_is_one_more_driver_call(self):
        """Starved of draws, the sketched model is polished by exact sweeps
        started from its factors, with the weights folded into factor 0."""
        data = random_low_rank_tensor((16, 14, 12), 3, seed=0)
        rng = np.random.default_rng(3)
        sketched = cp_als(
            data, 3, kernel=_per_call(4, rng), seed=rng,
            n_iter_max=5, tol=1e-6,
        )
        polished = cp_als(
            data, 3, init=_weighted_factors(sketched.model), n_iter_max=30, tol=1e-6
        )
        assert polished.model.fit(data) > max(sketched.model.fit(data), 0.6)

    def test_distributed_polish_charges_the_same_machine(self, tensor):
        sketched = parallel_cp_als(
            tensor, 3, 6, kernel="sampled", n_samples=16, seed=7, n_iter_max=2, tol=0.0
        )
        sketched_sent = sketched.machine.words_sent.copy()
        polished = parallel_cp_als(
            tensor, 3, 6, kernel="exact", machine=sketched.machine,
            init=_weighted_factors(sketched.als.model), n_iter_max=3, tol=0.0,
        )
        alone = parallel_cp_als(
            tensor, 3, 6, kernel="exact",
            init=_weighted_factors(sketched.als.model), n_iter_max=3, tol=0.0,
        )
        assert polished.als.fits == alone.als.fits
        assert polished.words_per_iteration == alone.words_per_iteration
        assert np.array_equal(
            polished.machine.words_sent, sketched_sent + alone.machine.words_sent
        )


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

    def test_exact_kernel_unchanged(self, tensor):
        """Algorithm 3 is byte-compatible with the pre-registry driver."""
        result = parallel_cp_als(
            tensor, 3, n_procs=4, kernel="exact", n_iter_max=2, tol=0.0, seed=1
        )
        assert result.als.final_fit > 0.5
