"""Unit tests for the distributed sampled MTTKRP subsystem (repro.sketch.parallel)."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import DistributionError, ParameterError
from repro.parallel.collectives import (
    bucket_all_gather_cost,
    bucket_reduce_scatter_cost,
)
from repro.parallel.distribution import StationaryDistribution
from repro.parallel.grid import ProcessorGrid
from repro.parallel.machine import SimulatedMachine
from repro.parallel.stationary import stationary_mttkrp
from repro.sketch.parallel.distribution import (
    SampleAssignment,
    choose_sampled_grid,
    sampled_grid_cost,
)
from repro.sketch.parallel.reconcile import (
    predicted_sampled_ledger,
    reconcile_sampled_mttkrp,
)
from repro.sketch.parallel.sampled_mttkrp import (
    GATHER_LABEL,
    OUTPUT_LABEL,
    SETUP_LABEL,
    parallel_sampled_mttkrp,
)
from repro.sketch.sampled_mttkrp import sampled_mttkrp
from repro.sketch.sampling import DISTRIBUTIONS, draw_krp_samples
from repro.tensor.dense import as_ndarray
from repro.tensor.random import random_factors, random_tensor

SHAPE = (8, 9, 10)
RANK = 4
GRIDS = [(6, 1, 1), (1, 2, 3), (2, 3, 1), (1, 1, 1)]


def _phase_words(machine, label):
    """Words per participating rank, summed over the collectives of one phase."""
    return sum(rec.words_per_rank for rec in machine.records if rec.label.startswith(label))


def _mostly_zero(density, seed):
    """A dense ``SHAPE`` array with ``round(density * size)`` random entries set."""
    rng = np.random.default_rng(seed)
    data = np.zeros(SHAPE)
    n = round(density * data.size)
    entries = rng.choice(data.size, n, replace=False)  # drawn before the values
    data.flat[entries] = rng.standard_normal(n)
    return data


@pytest.fixture(scope="module")
def dense_problem():
    tensor = random_tensor(SHAPE, seed=0)
    factors = random_factors(SHAPE, RANK, seed=1)
    return tensor, factors


@pytest.fixture(scope="module")
def mostly_zero_problem():
    """A 15%-dense array: most sampled fibers are all zero, and some ranks'
    blocks hold only a few nonzeros."""
    tensor = _mostly_zero(0.15, seed=2)
    factors = random_factors(SHAPE, RANK, seed=3)
    return tensor, factors


class TestSampleAssignment:
    @pytest.fixture(scope="class")
    def assignment(self):
        factors = random_factors(SHAPE, RANK, seed=1)
        samples = draw_krp_samples(factors, 0, 20, distribution="uniform", seed=5)
        grid = ProcessorGrid((1, 2, 3))
        dist = StationaryDistribution(SHAPE, RANK, 0, grid)
        return SampleAssignment(dist, samples), samples, dist

    def test_each_sample_owned_by_output_mode_extent_ranks(self, assignment):
        """Every distinct sample is owned by exactly P_n ranks (its fiber holders)."""
        assign, samples, dist = assignment
        counts = np.zeros(samples.n_distinct, dtype=int)
        for rank in range(dist.grid.n_procs):
            counts += assign.owned_mask(rank)
        assert np.all(counts == dist.grid.dims[0])

    def test_block_rows_partition_sampled_indices(self, assignment):
        """Per-block sampled rows concatenate to the distinct sampled index set."""
        assign, samples, dist = assignment
        for t, k in enumerate(samples.modes):
            concatenated = np.concatenate(
                [assign.sampled_rows_in_block(k, pk) for pk in range(dist.grid.dims[k])]
            )
            assert np.array_equal(concatenated, np.unique(samples.indices[:, t]))

    def test_gather_contributions_reassemble_block_rows(self, assignment):
        """Hyperslice contributions concatenate (in group order) to the block rows."""
        assign, samples, dist = assignment
        grid = dist.grid
        for k in samples.modes:
            for pk in range(grid.dims[k]):
                group = grid.slice_group({k: pk})
                pieces = [assign.rank_gather_contribution(k, r) for r in group]
                assert np.array_equal(
                    np.concatenate(pieces), assign.sampled_rows_in_block(k, pk)
                )

    def test_mismatched_sample_set_rejected(self, assignment):
        assign, samples, dist = assignment
        other = StationaryDistribution(SHAPE, RANK, 1, ProcessorGrid((1, 2, 3)))
        with pytest.raises(DistributionError):
            SampleAssignment(other, samples)


class TestSeedEquivalence:
    """Distributed == sequential sampled MTTKRP under the same seed."""

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("grid", GRIDS)
    def test_dense_matches_sequential(self, dense_problem, distribution, grid):
        tensor, factors = dense_problem
        run = parallel_sampled_mttkrp(
            tensor, factors, 0, grid, n_samples=24, distribution=distribution, seed=42
        )
        report = sampled_mttkrp(
            tensor,
            factors,
            0,
            n_samples=24,
            distribution=distribution,
            seed=42,
            return_report=True,
        )
        # the replicated draw is bitwise identical to the sequential draw
        assert np.array_equal(run.samples.indices, report.samples.indices)
        assert np.array_equal(run.samples.counts, report.samples.counts)
        assert np.array_equal(run.samples.probabilities, report.samples.probabilities)
        # the estimate agrees to machine precision (summation order is the
        # only divergence channel when a grid splits the sample space)
        assert np.allclose(run.assemble(), report.result, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("grid", [(1, 6, 1), (3, 2, 1), (1, 3, 2), (1, 1, 1)])
    def test_mostly_zero_tensor_matches_sequential(
        self, mostly_zero_problem, distribution, grid
    ):
        tensor, factors = mostly_zero_problem
        run = parallel_sampled_mttkrp(
            tensor, factors, 1, grid, n_samples=24, distribution=distribution, seed=11
        )
        report = sampled_mttkrp(
            tensor,
            factors,
            1,
            n_samples=24,
            distribution=distribution,
            seed=11,
            return_report=True,
        )
        assert np.array_equal(run.samples.indices, report.samples.indices)
        assert np.array_equal(run.samples.counts, report.samples.counts)
        assert np.allclose(run.assemble(), report.result, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("mostly_zero", [False, True])
    def test_output_mode_only_grid_is_bitwise(
        self, dense_problem, mostly_zero_problem, distribution, mostly_zero
    ):
        """A grid splitting only the output mode never reorders a single sum.

        Every rank's GEMM is then a row slice of the sequential GEMM over the
        identical sample columns, so the assembled output is bitwise equal for
        every sampling strategy, on a Gaussian and on a mostly-zero tensor.
        """
        tensor, factors = mostly_zero_problem if mostly_zero else dense_problem
        run = parallel_sampled_mttkrp(
            tensor, factors, 0, (6, 1, 1), n_samples=24,
            distribution=distribution, seed=9,
        )
        sequential = sampled_mttkrp(
            tensor, factors, 0, n_samples=24, distribution=distribution, seed=9
        )
        assert np.array_equal(run.assemble(), sequential)

    def test_pre_drawn_samples_reused(self, dense_problem):
        tensor, factors = dense_problem
        samples = draw_krp_samples(factors, 0, 16, distribution="leverage", seed=3)
        run = parallel_sampled_mttkrp(tensor, factors, 0, (2, 3, 1), samples=samples)
        sequential = sampled_mttkrp(tensor, factors, 0, samples=samples)
        assert run.samples is samples
        assert np.allclose(run.assemble(), sequential, rtol=1e-12, atol=1e-12)


class TestCallerSampleSets:
    """A caller's SampleSet may list its rows in any order."""

    @pytest.mark.parametrize("half_zero", [False, True], ids=["gaussian", "half-zero"])
    @pytest.mark.parametrize("grid", [(1, 2, 3), (2, 1, 3), (6, 1, 1)], ids=str)
    @pytest.mark.parametrize("reverse", [False, True], ids=["drawn", "reversed"])
    def test_matches_sequential(self, half_zero, grid, reverse):
        tensor = (
            _mostly_zero(0.5, seed=2)
            if half_zero
            else random_tensor(SHAPE, seed=0)
        )
        factors = random_factors(SHAPE, 3, seed=1)
        samples = draw_krp_samples(factors, 0, 40, distribution="uniform", seed=5)
        if reverse:
            samples = dataclasses.replace(
                samples,
                indices=samples.indices[::-1],
                counts=samples.counts[::-1],
                probabilities=samples.probabilities[::-1],
            )
        run = parallel_sampled_mttkrp(tensor, factors, 0, grid, samples=samples)
        sequential = sampled_mttkrp(tensor, factors, 0, samples=samples)
        assert np.max(np.abs(run.assemble() - sequential)) <= 1e-12


def test_dense_blocks_read_in_place():
    """A call reads every rank's dense block where it lies, copying none."""
    shape = (40, 40, 40)
    tensor = random_tensor(shape, seed=0)
    factors = random_factors(shape, 4, seed=1)

    def call():
        return parallel_sampled_mttkrp(tensor, factors, 0, (2, 2, 1), n_samples=64, seed=2)

    call()
    tracemalloc.start()
    try:
        run = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < as_ndarray(tensor).nbytes / 2
    # The storage charge still holds each rank's whole block.
    assert run.machine.storage_high_water.min() >= 20 * 20 * 40


class TestLedger:
    """Ledger totals must match the collectives cost helpers exactly."""

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("grid", [(6, 1, 1), (1, 2, 3), (2, 3, 1)])
    def test_ledger_matches_predictor(self, dense_problem, distribution, grid):
        tensor, factors = dense_problem
        run = parallel_sampled_mttkrp(
            tensor, factors, 0, grid, n_samples=24, distribution=distribution, seed=42
        )
        predicted = predicted_sampled_ledger(SHAPE, RANK, 0, grid, run.samples)
        assert np.array_equal(run.machine.words_sent, predicted)
        assert np.array_equal(run.machine.words_received, predicted)

    def test_ledger_matches_cost_helpers_directly(self, dense_problem):
        """Recompute every charged collective from the bucket cost helpers."""
        tensor, factors = dense_problem
        grid_dims = (1, 2, 3)
        run = parallel_sampled_mttkrp(
            tensor, factors, 0, grid_dims, n_samples=24,
            distribution="uniform", seed=7,
        )
        grid = ProcessorGrid(grid_dims)
        dist = run.distribution
        assignment = run.assignment
        expected = np.zeros(grid.n_procs, dtype=np.int64)
        for k in (1, 2):
            for pk in range(grid.dims[k]):
                group = grid.slice_group({k: pk})
                max_block = max(
                    len(assignment.rank_gather_contribution(k, r)) * RANK
                    for r in group
                )
                words = bucket_all_gather_cost(len(group), max_block)
                for r in group:
                    expected[r] += words
        for pn in range(grid.dims[0]):
            group = grid.slice_group({0: pn})
            start, stop = dist.mode_partitions[0][pn]
            rows = -(-(stop - start) // len(group))
            words = bucket_reduce_scatter_cost(len(group), rows * RANK)
            for r in group:
                expected[r] += words
        assert np.array_equal(run.machine.words_sent, expected)
        assert np.array_equal(run.machine.words_received, expected)

    def test_phase_labels_cover_all_records(self, dense_problem):
        tensor, factors = dense_problem
        run = parallel_sampled_mttkrp(
            tensor, factors, 0, (1, 2, 3), n_samples=16,
            distribution="product-leverage", seed=1,
        )
        prefixes = (SETUP_LABEL, GATHER_LABEL, OUTPUT_LABEL)
        assert all(
            any(rec.label.startswith(p) for p in prefixes)
            for rec in run.machine.records
        )
        assert _phase_words(run.machine, SETUP_LABEL) > 0
        assert _phase_words(run.machine, GATHER_LABEL) > 0

    def test_uniform_charges_no_setup(self, dense_problem):
        tensor, factors = dense_problem
        run = parallel_sampled_mttkrp(
            tensor, factors, 0, (1, 2, 3), n_samples=16,
            distribution="uniform", seed=1,
        )
        assert _phase_words(run.machine, SETUP_LABEL) == 0

    def test_single_processor_no_communication(self, dense_problem):
        tensor, factors = dense_problem
        run = parallel_sampled_mttkrp(
            tensor, factors, 0, (1, 1, 1), n_samples=16,
            distribution="uniform", seed=1,
        )
        assert run.max_words_communicated == 0


class TestGridSelection:
    def test_small_samples_favor_output_mode(self):
        """Tiny draws push processors onto the output mode, where the exact
        grid rule would balance all modes."""
        grid = choose_sampled_grid((32, 16, 16), 4, 0, 4, 8)
        assert grid[0] >= 4
        assert sampled_grid_cost((32, 16, 16), 4, 0, 4, grid) <= sampled_grid_cost(
            (32, 16, 16), 4, 0, 4, (2, 2, 2)
        )

    def test_cost_matches_shape(self):
        cost = sampled_grid_cost(SHAPE, RANK, 0, 16, (1, 2, 3))
        assert cost > 0
        with pytest.raises(DistributionError):
            sampled_grid_cost(SHAPE, RANK, 0, 16, (1, 2))

    def test_grid_fits_the_dimensions(self):
        grid = choose_sampled_grid((2, 2, 64), 2, 2, 4, 16)
        assert all(p <= d for p, d in zip(grid, (2, 2, 64)))


class TestReconcile:
    def test_acceptance_toy_beats_exact(self, dense_problem):
        """ISSUE 2 acceptance: 8x9x10, R=4, P=6, draws under the crossover."""
        tensor, factors = dense_problem
        run = reconcile_sampled_mttkrp(
            tensor, factors, 0, 6, n_samples=4, distribution="uniform", seed=5
        )
        # measured words meet the cost model's bound word for word...
        assert run.measured_words == run.predicted_words
        # ...and fall strictly below the measured exact-kernel words and the
        # exact algorithm's modelled cost.
        assert run.measured_words < run.exact_words_measured
        assert run.measured_words < run.exact_words_modelled
        assert run.beats_exact
        assert run.measured_setup_words == 0  # uniform needs no setup

    def test_setup_split(self, dense_problem):
        tensor, factors = dense_problem
        run = reconcile_sampled_mttkrp(
            tensor, factors, 0, 6, n_samples=16,
            distribution="product-leverage", seed=5,
        )
        assert run.measured_setup_words > 0
        assert run.measured_setup_words + run.measured_kernel_words >= run.measured_words
        assert run.measured_words == run.predicted_words

    def test_mostly_zero_reconcile(self, mostly_zero_problem):
        tensor, factors = mostly_zero_problem
        run = reconcile_sampled_mttkrp(
            tensor, factors, 0, 4, n_samples=8, distribution="uniform", seed=1
        )
        assert run.measured_words == run.predicted_words
        assert run.rel_error >= 0.0

    def test_to_dict_serialisable(self, dense_problem):
        import json

        tensor, factors = dense_problem
        run = reconcile_sampled_mttkrp(
            tensor, factors, 0, 4, n_samples=8, distribution="uniform", seed=1
        )
        encoded = json.dumps(run.to_dict())
        assert "measured_words" in encoded


class TestValidation:
    def test_grid_ndim_mismatch(self, dense_problem):
        tensor, factors = dense_problem
        with pytest.raises(DistributionError):
            parallel_sampled_mttkrp(tensor, factors, 0, (2, 3), n_samples=8)

    def test_machine_size_mismatch(self, dense_problem):
        tensor, factors = dense_problem
        with pytest.raises(DistributionError):
            parallel_sampled_mttkrp(
                tensor, factors, 0, (1, 2, 3), n_samples=8,
                machine=SimulatedMachine(4),
            )

    def test_mismatched_samples_rejected(self, dense_problem):
        tensor, factors = dense_problem
        samples = draw_krp_samples(factors, 1, 8, distribution="uniform", seed=0)
        with pytest.raises(ParameterError):
            parallel_sampled_mttkrp(tensor, factors, 0, (1, 2, 3), samples=samples)

    def test_output_distribution_matches_algorithm3(self, dense_problem):
        """The sampled output is distributed exactly like Algorithm 3's."""
        tensor, factors = dense_problem
        sampled = parallel_sampled_mttkrp(
            tensor, factors, 0, (2, 3, 1), n_samples=8, distribution="uniform", seed=0
        )
        exact = stationary_mttkrp(tensor, factors, 0, (2, 3, 1))
        for rank_id in range(6):
            assert np.array_equal(
                sampled.output.pieces[rank_id].rows, exact.output.pieces[rank_id].rows
            )
