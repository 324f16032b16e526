"""Tests for the distributed dimension-tree ALS kernel (repro.parallel.dimtree)."""

import numpy as np
import pytest

from repro.core.dimtree import DimensionTree
from repro.core.kernels import mttkrp
from repro.cp.parallel_als import PARALLEL_KERNEL_NAMES, parallel_cp_als
from repro.exceptions import ParameterError
from repro.parallel.dimtree import (
    DistributedDimtreeKernel,
    GATHER_LABEL,
    predicted_dimtree_ledger,
    predicted_dimtree_sweep_words,
)
from repro.parallel.grid_selection import choose_stationary_grid
from repro.resilience import CheckpointStore
from repro.tensor.random import noisy_low_rank_tensor, random_factors, random_tensor


@pytest.fixture
def tensor():
    return noisy_low_rank_tensor((12, 10, 8), 3, noise_level=0.01, seed=0)


class TestDistributedKernelCorrectness:
    @pytest.mark.parametrize("grid", [(2, 2, 2), (4, 1, 1), (1, 1, 4), (3, 1, 2)])
    def test_matches_single_node_mttkrp(self, grid):
        data = random_tensor((6, 5, 4), seed=1)
        factors = random_factors((6, 5, 4), 3, seed=2)
        kernel = DistributedDimtreeKernel(grid)
        for mode in range(3):
            reference = mttkrp(data, factors, mode)
            assert np.allclose(kernel.mttkrp(data, factors, mode), reference, atol=1e-10)

    def test_repeated_calls_reuse_gathers(self):
        data = random_tensor((6, 5, 4), seed=3)
        factors = random_factors((6, 5, 4), 2, seed=4)
        kernel = DistributedDimtreeKernel((2, 2, 1))
        kernel.mttkrp(data, factors, 0)
        gathers_after_first = sum(
            1 for r in kernel.machine.records if r.label.startswith(GATHER_LABEL)
        )
        kernel.mttkrp(data, factors, 0)
        # identical factor objects: no new All-Gathers at all
        assert (
            sum(1 for r in kernel.machine.records if r.label.startswith(GATHER_LABEL))
            == gathers_after_first
        )

    def test_four_way_matches(self):
        data = random_tensor((4, 3, 4, 3), seed=5)
        factors = random_factors((4, 3, 4, 3), 2, seed=6)
        kernel = DistributedDimtreeKernel((2, 1, 2, 1))
        for mode in range(4):
            assert np.allclose(
                kernel.mttkrp(data, factors, mode), mttkrp(data, factors, mode), atol=1e-10
            )


class TestParallelALSDimtree:
    def test_registered(self):
        assert "dimtree" in PARALLEL_KERNEL_NAMES

    def test_fits_match_exact_kernel(self, tensor):
        exact = parallel_cp_als(tensor, 3, 8, n_iter_max=5, tol=0.0, seed=1, kernel="exact")
        tree = parallel_cp_als(tensor, 3, 8, n_iter_max=5, tol=0.0, seed=1, kernel="dimtree")
        assert np.allclose(exact.als.fits, tree.als.fits, atol=1e-10)

    def test_unknown_kernel_message_unified(self, tensor):
        with pytest.raises(ParameterError, match="unknown parallel MTTKRP kernel"):
            parallel_cp_als(tensor, 3, 8, kernel="gpu")

    def test_ledger_matches_predictor_word_for_word(self, tensor):
        """PR-2-style reconciliation: measured == predicted, per rank."""
        n_sweeps = 4
        result = parallel_cp_als(
            tensor, 3, 8, n_iter_max=n_sweeps, tol=0.0, seed=2, kernel="dimtree"
        )
        predicted = predicted_dimtree_ledger(tensor.shape, 3, result.grids[0], n_sweeps)
        assert np.array_equal(result.machine.words_sent, predicted)
        assert np.array_equal(result.machine.words_received, predicted)

    @pytest.mark.parametrize(
        "shape,rank,n_procs", [((12, 10, 8), 3, 8), ((6, 5, 4, 5), 2, 6)]
    )
    def test_steady_sweep_words_below_exact(self, shape, rank, n_procs):
        """One gather per update instead of N - 1: strictly fewer sweep words."""
        data = noisy_low_rank_tensor(shape, rank, noise_level=0.01, seed=3)
        exact = parallel_cp_als(
            data, rank, n_procs, n_iter_max=3, tol=0.0, seed=4, kernel="exact"
        )
        tree = parallel_cp_als(
            data, rank, n_procs, n_iter_max=3, tol=0.0, seed=4, kernel="dimtree"
        )
        assert tree.words_per_iteration[-1] < exact.words_per_iteration[-1]
        assert tree.words_per_iteration[-1] == predicted_dimtree_sweep_words(
            shape, rank, tree.grids[0]
        )

    def test_single_processor_no_communication(self, tensor):
        result = parallel_cp_als(tensor, 3, 1, n_iter_max=2, tol=0.0, seed=5, kernel="dimtree")
        assert result.total_words == 0

    def test_local_flops_below_exact_atomic_count(self, tensor):
        """The per-rank trees reuse partials, so counted local flops drop too."""
        exact = parallel_cp_als(tensor, 3, 8, n_iter_max=3, tol=0.0, seed=6, kernel="exact")
        tree = parallel_cp_als(tensor, 3, 8, n_iter_max=3, tol=0.0, seed=6, kernel="dimtree")
        assert tree.machine.max_flops < exact.machine.max_flops

    def test_resume_on_the_bound_instance_restarts_from_the_snapshot(self, tensor):
        """The kernel applies a snapshot in ``step``, bound or not."""
        from repro.cp.als import cp_als

        kwargs = dict(n_iter_max=5, tol=0.0, seed=9)
        grid = choose_stationary_grid(tensor.shape, 3, 8)
        kernel = DistributedDimtreeKernel(grid)
        store = CheckpointStore()
        cp_als(tensor, 3, kernel=kernel, checkpoint_store=store, **kwargs)
        words_before = kernel.machine.words_sent.copy()
        flops_before = kernel.machine.flops.copy()
        resumed = cp_als(tensor, 3, kernel=kernel, resume_from=store.at_sweep(2), **kwargs)
        fresh = DistributedDimtreeKernel(grid)
        expected = cp_als(tensor, 3, kernel=fresh, resume_from=store.at_sweep(2), **kwargs)
        assert resumed.fits == expected.fits
        assert np.array_equal(kernel.machine.words_sent - words_before, fresh.machine.words_sent)
        assert np.array_equal(kernel.machine.flops - flops_before, fresh.machine.flops)


class _KeepingTree(DimensionTree):
    """A tree that keeps every node it builds: the reference that the
    per-rank drop is held against."""

    def mttkrp(self, factors, mode):
        self.register_factors(factors, mode)
        data, _, _ = self.node_value((mode,))
        return np.ascontiguousarray(data).copy()


#: ``(shape, rank)`` of the per-rank drop checks, on four simulated ranks:
#: 3-, 4-, 5- and 2-way.
DROP_CASES = [((12, 10, 8), 3), ((6, 5, 4, 5), 2), ((4, 3, 4, 3, 4), 2), ((12, 10), 3)]


class TestPerRankStaleNodeDrop:
    """``parallel_cp_als``'s default: before it serves mode ``m``, each
    per-rank tree drops the cached nodes whose key lacks ``m``."""

    @pytest.mark.parametrize("shape,rank", DROP_CASES)
    def test_trees_hold_only_nodes_with_the_mode_served(self, shape, rank, monkeypatch):
        held = []

        class Watched(DistributedDimtreeKernel):
            def _local_outputs(self, factors, mode):
                outputs = super()._local_outputs(factors, mode)
                held.extend(
                    (mode, list(tree.capture_state()["cache"])) for tree in self._trees.values()
                )
                return outputs

        monkeypatch.setattr("repro.cp.parallel_als.DistributedDimtreeKernel", Watched)
        data = noisy_low_rank_tensor(shape, rank, noise_level=0.05, seed=7)
        parallel_cp_als(data, rank, 4, n_iter_max=3, tol=0.0, seed=8)
        assert len(held) == 3 * len(shape) * 4
        for mode, keys in held:
            assert keys and all(mode in key for key in keys)

    @pytest.mark.parametrize("shape,rank", DROP_CASES)
    def test_the_drop_moves_only_the_storage_charge(self, shape, rank, monkeypatch):
        """Against trees that keep every node: the same fits, factors, words
        and flops, and a lower storage high-water mark on every rank."""
        data = noisy_low_rank_tensor(shape, rank, noise_level=0.05, seed=7)
        kwargs = dict(n_iter_max=4, tol=0.0, seed=8)
        dropping = parallel_cp_als(data, rank, 4, **kwargs)
        monkeypatch.setattr("repro.parallel.dimtree.DimensionTree", _KeepingTree)
        keeping = parallel_cp_als(data, rank, 4, **kwargs)
        assert dropping.als.fits == keeping.als.fits
        for a, b in zip(dropping.als.model.factors, keeping.als.model.factors):
            assert a.tobytes() == b.tobytes()
        assert dropping.words_per_iteration == keeping.words_per_iteration
        for field in ("words_sent", "words_received", "flops"):
            np.testing.assert_array_equal(
                getattr(dropping.machine, field), getattr(keeping.machine, field)
            )
        assert np.all(
            dropping.machine.storage_high_water < keeping.machine.storage_high_water
        )


class TestPredictor:
    def test_first_sweep_gathers_more(self):
        shape, rank = (12, 10, 8), 3
        grid = choose_stationary_grid(shape, rank, 8)
        one = predicted_dimtree_ledger(shape, rank, grid, 1)
        two = predicted_dimtree_ledger(shape, rank, grid, 2)
        three = predicted_dimtree_ledger(shape, rank, grid, 3)
        # sweep 1 gathers the cold factors of mode 0 on top of the steady state
        assert one.max() >= (two - one).max()
        # steady state: every subsequent sweep charges identically
        assert np.array_equal(two - one, three - two)

    def test_grid_dimension_mismatch_rejected(self):
        with pytest.raises(Exception):
            predicted_dimtree_ledger((4, 4, 4), 2, (2, 2), 1)
