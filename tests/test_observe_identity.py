"""Tracing must not perturb computation: traced runs are bitwise identical.

The observability hooks live inside the hot kernels (dimension-tree
contractions, fused sampler, collectives), so the acceptance bar is strict:
running the same seeded decomposition with tracing enabled must produce
bitwise-identical factors, fits, counted ledgers, and simulated
communication logs.  Any RNG consumption, reordering, or numeric side
effect in a hook would show up here.
"""

import numpy as np

from repro.core.dimtree import DimensionTreeKernel
from repro.core.sampled_dimtree import SampledDimtreeKernel
from repro.cp.als import cp_als
from repro.cp.parallel_als import parallel_cp_als
from repro.observe import is_tracing, tracing
from repro.tensor.random import noisy_low_rank_tensor

SHAPE = (6, 7, 8)
RANK = 3
SWEEPS = 3


def _problem():
    return noisy_low_rank_tensor(SHAPE, RANK, noise_level=0.05, seed=0)


def _sequential(kernel_factory):
    tensor = _problem()
    kernel = kernel_factory()
    result = cp_als(
        tensor,
        RANK,
        n_iter_max=SWEEPS,
        tol=0.0,
        seed=1,
        kernel=kernel,
    )
    return result, kernel


def assert_identical_results(plain, traced):
    assert plain.fits == traced.fits
    np.testing.assert_array_equal(plain.model.weights, traced.model.weights)
    assert len(plain.model.factors) == len(traced.model.factors)
    for a, b in zip(plain.model.factors, traced.model.factors):
        np.testing.assert_array_equal(a, b)


class TestSequentialIdentity:
    def test_dimtree_bitwise_identical_and_ledgers_equal(self):
        plain, plain_kernel = _sequential(DimensionTreeKernel)
        with tracing():
            traced, traced_kernel = _sequential(DimensionTreeKernel)
        assert not is_tracing()
        assert_identical_results(plain, traced)
        assert plain_kernel.per_sweep_costs() == traced_kernel.per_sweep_costs()

    def test_sampled_dimtree_bitwise_identical_and_ledgers_equal(self):
        make = lambda: SampledDimtreeKernel(n_samples=32, seed=3)
        plain, plain_kernel = _sequential(make)
        with tracing():
            traced, traced_kernel = _sequential(make)
        assert_identical_results(plain, traced)
        assert plain_kernel.per_sweep_costs() == traced_kernel.per_sweep_costs()
        assert plain_kernel.draw_log == traced_kernel.draw_log


class TestParallelIdentity:
    def test_parallel_dimtree_machine_ledger_identical(self):
        tensor = _problem()

        def run():
            return parallel_cp_als(
                tensor,
                RANK,
                4,
                kernel="dimtree",
                n_iter_max=SWEEPS,
                tol=0.0,
                seed=1,
            )

        plain = run()
        with tracing():
            traced = run()
        assert_identical_results(plain.als, traced.als)
        assert plain.words_per_iteration == traced.words_per_iteration
        assert plain.machine.records == traced.machine.records

    def test_parallel_sampled_dimtree_machine_ledger_identical(self):
        tensor = _problem()

        def run():
            return parallel_cp_als(
                tensor,
                RANK,
                4,
                kernel="sampled-dimtree",
                n_samples=32,
                n_iter_max=SWEEPS,
                tol=0.0,
                seed=1,
            )

        plain = run()
        with tracing():
            traced = run()
        assert_identical_results(plain.als, traced.als)
        assert plain.words_per_iteration == traced.words_per_iteration
        assert plain.machine.records == traced.machine.records
