"""Tests for the sampled MTTKRP kernel (repro.sketch.sampled_mttkrp)."""

import inspect

import numpy as np
import pytest

from repro.core.kernels import mttkrp
from repro.core.sampled_dimtree import SampledDimtreeKernel
from repro.cp.als import cp_als
from repro.exceptions import ParameterError
from repro.experiments.sketch_crossover import coherent_problem
from repro.parallel.machine import SimulatedMachine
from repro.sketch.sampled_mttkrp import default_sample_count, sampled_mttkrp
from repro.sketch.parallel import parallel_sampled_mttkrp, reconcile_sampled_mttkrp
from repro.sketch.sampling import draw_krp_samples
from repro.tensor.khatri_rao import implicit_krp_column_count
from repro.tensor.random import random_factors, random_low_rank_tensor, random_tensor

SHAPE = (6, 5, 4)
RANK = 3


#: The sampled entry points that take a draw count, each called with ``n``.
DRAW_COUNT_ENTRY_POINTS = {
    "sampled_mttkrp": lambda tensor, factors, n: sampled_mttkrp(
        tensor, factors, 0, n_samples=n, seed=0
    ),
    "parallel_sampled_mttkrp": lambda tensor, factors, n: parallel_sampled_mttkrp(
        tensor, factors, 0, (2, 1, 1), n_samples=n, seed=0
    ),
    "SampledDimtreeKernel": lambda tensor, factors, n: SampledDimtreeKernel(n, seed=0),
}


@pytest.fixture()
def problem():
    tensor = random_tensor(SHAPE, seed=0)
    factors = random_factors(SHAPE, RANK, seed=1)
    return tensor, factors


@pytest.mark.parametrize("entry", sorted(DRAW_COUNT_ENTRY_POINTS))
@pytest.mark.parametrize(
    "n_samples, message",
    [
        (0, "n_samples must be >= 1"),
        (2.5, "n_samples must be an integer"),
        (True, "n_samples must be an integer"),
    ],
)
def test_bad_draw_count_is_named_n_samples(problem, entry, n_samples, message):
    """Checked under the caller's name, and by the sampled kernel when built."""
    tensor, factors = problem
    with pytest.raises(ParameterError, match=message):
        DRAW_COUNT_ENTRY_POINTS[entry](tensor, factors, n_samples)


@pytest.mark.parametrize("entry", sorted(DRAW_COUNT_ENTRY_POINTS))
@pytest.mark.parametrize("n_samples", [None, np.int64(16)])
def test_default_and_numpy_draw_counts_accepted(problem, entry, n_samples):
    tensor, factors = problem
    assert DRAW_COUNT_ENTRY_POINTS[entry](tensor, factors, n_samples) is not None


class TestEstimator:
    @pytest.mark.parametrize(
        "distribution", ["uniform", "leverage", "product-leverage", "tree-leverage"]
    )
    def test_unbiased_in_expectation(self, problem, distribution):
        """Averaging many independent estimates converges on the exact MTTKRP."""
        tensor, factors = problem
        exact = mttkrp(tensor, factors, 0)
        rng = np.random.default_rng(7)
        total = np.zeros_like(exact)
        n_reps = 400
        for _ in range(n_reps):
            total += sampled_mttkrp(
                tensor, factors, 0, n_samples=32, distribution=distribution, seed=rng
            )
        mean = total / n_reps
        rel = np.linalg.norm(mean - exact) / np.linalg.norm(exact)
        assert rel < 0.1

    def test_full_support_sampling_is_exact_in_the_limit(self, problem):
        """With every row drawn many times the estimate concentrates tightly."""
        tensor, factors = problem
        exact = mttkrp(tensor, factors, 2)
        est = sampled_mttkrp(
            tensor, factors, 2, n_samples=200000, distribution="leverage", seed=0
        )
        rel = np.linalg.norm(est - exact) / np.linalg.norm(exact)
        assert rel < 0.05

    def test_acceptance_leverage_frontier(self):
        """Acceptance criterion: <= 5% error at >= 10x fewer KRP rows.

        Seeded coherent 50x60x70 rank-10 problem; exact leverage-score
        sampling must reach relative Frobenius error <= 0.05 while
        materializing at most a tenth of the J = 4200 Khatri-Rao rows.
        """
        tensor, factors = coherent_problem((50, 60, 70), 10, coherence=10.0, seed=1)
        exact = mttkrp(tensor, factors, 0)
        report = sampled_mttkrp(
            tensor,
            factors,
            0,
            n_samples=20000,
            distribution="leverage",
            seed=7,
            return_report=True,
        )
        krp_rows = implicit_krp_column_count((50, 60, 70), 0)
        assert report.distinct_rows * 10 <= krp_rows
        rel = np.linalg.norm(report.result - exact) / np.linalg.norm(exact)
        assert rel <= 0.05

    def test_report_fields(self, problem):
        tensor, factors = problem
        report = sampled_mttkrp(
            tensor, factors, 0, n_samples=64, seed=2, return_report=True
        )
        assert report.n_draws == 64
        assert report.distinct_rows <= 64
        assert report.krp_entries == report.distinct_rows * RANK
        assert report.gemm_flops == 2 * SHAPE[0] * report.distinct_rows * RANK
        assert report.result.shape == (SHAPE[0], RANK)

    def test_default_sample_count_used(self, problem):
        tensor, factors = problem
        report = sampled_mttkrp(tensor, factors, 0, seed=3, return_report=True)
        assert report.n_draws == default_sample_count(RANK)

    def test_reuse_sample_set(self, problem):
        tensor, factors = problem
        samples = draw_krp_samples(factors, 1, 50, distribution="leverage", seed=4)
        a = sampled_mttkrp(tensor, factors, 1, samples=samples)
        b = sampled_mttkrp(tensor, factors, 1, samples=samples)
        assert np.array_equal(a, b)

    def test_mismatched_sample_set_rejected(self, problem):
        tensor, factors = problem
        samples = draw_krp_samples(factors, 1, 50, seed=5)
        with pytest.raises(ParameterError):
            sampled_mttkrp(tensor, factors, 0, samples=samples)

    def test_missing_factors_rejected(self, problem):
        tensor, _ = problem
        with pytest.raises(ParameterError):
            sampled_mttkrp(tensor, [None, None, None], 0, n_samples=8)


#: The sampled MTTKRP entry points, each called on mode 0 by ``_call_sampled``.
SAMPLED_ENTRY_POINTS = ["sampled_mttkrp", "parallel_sampled_mttkrp", "reconcile_sampled_mttkrp"]


def _call_sampled(entry, tensor, factors, rng, machine, **options):
    if entry == "sampled_mttkrp":
        return sampled_mttkrp(tensor, factors, 0, seed=rng, **options)
    if entry == "parallel_sampled_mttkrp":
        return parallel_sampled_mttkrp(
            tensor, factors, 0, (2, 1, 1), seed=rng, machine=machine, **options
        )
    return reconcile_sampled_mttkrp(tensor, factors, 0, 2, seed=rng, **options)


def test_sampled_entry_points_share_one_default_distribution():
    """The same call moved between the sequential kernel, the distributed
    one, its reconciliation or the bare draw draws from one distribution."""
    entry_points = [
        sampled_mttkrp,
        parallel_sampled_mttkrp,
        reconcile_sampled_mttkrp,
        draw_krp_samples,
    ]
    defaults = {
        fn.__name__: inspect.signature(fn).parameters["distribution"].default
        for fn in entry_points
    }
    assert defaults == dict.fromkeys(defaults, "product-leverage")


@pytest.mark.parametrize("entry", SAMPLED_ENTRY_POINTS)
def test_non_array_tensor_rejected_before_any_draw_or_collective(problem, entry):
    """The sampled kernels take dense tensors: an object that is not
    array-like fails up front, naming its type, before a draw is taken or a
    word moves."""
    _, factors = problem
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    machine = SimulatedMachine(2)
    with pytest.raises(ParameterError, match="object with dtype object"):
        _call_sampled(entry, object(), factors, rng, machine)
    assert rng.bit_generator.state == before
    assert machine.records == []


@pytest.mark.parametrize("entry", SAMPLED_ENTRY_POINTS)
def test_unknown_distribution_rejected_before_any_draw_or_collective(problem, entry):
    tensor, factors = problem
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    machine = SimulatedMachine(2)
    with pytest.raises(ParameterError, match="unknown sampling distribution 'bogus'"):
        _call_sampled(entry, tensor, factors, rng, machine, distribution="bogus")
    assert rng.bit_generator.state == before
    assert machine.records == []


@pytest.mark.parametrize("entry", SAMPLED_ENTRY_POINTS)
def test_zero_tensor_gives_zero_estimate(problem, entry):
    _, factors = problem
    zero = np.zeros(SHAPE)
    run = _call_sampled(
        entry, zero, factors, np.random.default_rng(10), SimulatedMachine(2), n_samples=16
    )
    if entry == "reconcile_sampled_mttkrp":
        assert run.rel_error == 0.0
        return
    estimate = run if entry == "sampled_mttkrp" else run.assemble()
    assert estimate.shape == (SHAPE[0], RANK)
    assert np.all(estimate == 0.0)


class TestKernelIntegration:
    def test_per_call_kernel_output_shape(self, problem):
        tensor, factors = problem
        kernel = SampledDimtreeKernel(128, cache=False, seed=11)
        result = kernel.mttkrp(tensor, factors, 0)
        assert result.shape == (SHAPE[0], RANK)

    def test_kernel_resamples_each_call(self, problem):
        tensor, factors = problem
        kernel = SampledDimtreeKernel(64, cache=False, seed=12)
        first = kernel.mttkrp(tensor, factors, 0)
        assert not np.array_equal(first, kernel.mttkrp(tensor, factors, 0))

    def test_cp_als_accepts_sampled_kernel_name(self):
        tensor = random_low_rank_tensor((12, 10, 8), 3, seed=13)
        result = cp_als(tensor, 3, kernel="sampled", seed=13, n_iter_max=20)
        assert result.mttkrp_calls > 0
        # The sampled kernel drives a real fit improvement on a low-rank target.
        assert result.model.fit(tensor) > 0.5

    def test_per_call_kernel_rejects_unknown_distribution_when_built(self):
        with pytest.raises(ParameterError, match="sampling distribution 'bogus'"):
            SampledDimtreeKernel(64, distribution="bogus", cache=False)

    def test_unknown_kernel_message_lists_sampled(self):
        with pytest.raises(ParameterError, match="sampled"):
            cp_als(random_tensor((3, 3), seed=0), 2, kernel="gpu")

    def test_cp_als_sampled_kernel_is_seeded(self):
        """An explicit seed makes the whole sampled ALS run reproducible."""
        tensor = random_low_rank_tensor((12, 10, 8), 3, seed=14)
        a = cp_als(tensor, 3, kernel="sampled", seed=42, n_iter_max=8)
        b = cp_als(tensor, 3, kernel="sampled", seed=42, n_iter_max=8)
        for fa, fb in zip(a.model.factors, b.model.factors):
            assert np.array_equal(fa, fb)
        assert a.fits == b.fits
