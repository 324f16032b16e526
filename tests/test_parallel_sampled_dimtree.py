"""Tests for the distributed fused sampled-dimtree kernel and its predictor."""

import numpy as np
import pytest

from repro.core.sampled_dimtree import SampledDimtreeKernel
from repro.cp.als import cp_als
from repro.cp.parallel_als import PARALLEL_KERNEL_NAMES, parallel_cp_als
from repro.exceptions import ParameterError
from repro.parallel import dimtree as exact_dimtree
from repro.parallel.dimtree import DistributedDimtreeKernel, predicted_dimtree_ledger
from repro.sketch.parallel.sampled_dimtree import (
    GATHER_LABEL,
    GRAM_LABEL,
    REDUCE_LABEL,
    DistributedSampledDimtreeKernel,
    predicted_sampled_dimtree_ledger,
)
from repro.tensor.random import noisy_low_rank_tensor

SWEEPS = 4

CASES = [
    ((12, 10, 8), 3, 8, 32),
    ((16, 16, 16), 4, 8, 128),
    ((6, 5, 4, 5), 2, 6, 16),
]


class TestLedgerReconciliation:
    @pytest.mark.parametrize("shape,rank,n_procs,draws", CASES)
    def test_ledger_equals_predictor_word_for_word(self, shape, rank, n_procs, draws):
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=0)
        run = parallel_cp_als(
            tensor,
            rank,
            n_procs,
            kernel="sampled-dimtree",
            n_samples=draws,
            n_iter_max=SWEEPS,
            tol=0.0,
            seed=5,
        )
        predicted = predicted_sampled_dimtree_ledger(shape, rank, run.grids[0], SWEEPS)
        assert np.array_equal(run.machine.words_sent, predicted)
        assert np.array_equal(run.machine.words_received, predicted)

    def test_ledger_is_draw_independent(self):
        """Fibers and partials are local, so draw count never moves a word."""
        shape, rank, n_procs = (12, 10, 8), 3, 8
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=0)
        words = []
        for draws in (4, 64):
            run = parallel_cp_als(
                tensor, rank, n_procs, kernel="sampled-dimtree", n_samples=draws,
                n_iter_max=2, tol=0.0, seed=5,
            )
            words.append(run.total_words)
        assert words[0] == words[1]

    def test_predictor_is_dimtree_plus_gram_allreduce(self):
        """The fused ledger is the exact dimtree ledger plus one global
        R x R Gram All-Reduce per gather event."""
        shape, rank, grid = (12, 10, 8), 3, (2, 2, 2)
        fused = predicted_sampled_dimtree_ledger(shape, rank, grid, SWEEPS)
        plain = predicted_dimtree_ledger(shape, rank, grid, SWEEPS)
        extra = fused - plain
        assert np.all(extra > 0)
        # every rank pays the same Gram All-Reduce cost at every event
        assert len(set(extra.tolist())) == 1

    @pytest.mark.parametrize(
        "replay", [predicted_dimtree_ledger, predicted_sampled_dimtree_ledger]
    )
    @pytest.mark.parametrize("n_sweeps", [0, -1, 2.5, "2"])
    def test_replay_rejects_bad_n_sweeps(self, replay, n_sweeps):
        with pytest.raises(ParameterError, match="n_sweeps"):
            replay((12, 10, 8), 3, (2, 2, 2), n_sweeps)

    def test_steady_sweep_words_constant_and_positive(self):
        """After the first sweep every sweep adds the same positive words."""
        shape, rank, grid = (12, 10, 8), 3, (2, 2, 2)
        ledgers = [predicted_sampled_dimtree_ledger(shape, rank, grid, n) for n in (2, 3, 4)]
        third, fourth = ledgers[1] - ledgers[0], ledgers[2] - ledgers[1]
        assert np.array_equal(third, fourth)
        assert np.all(third > 0)

    def test_phase_labels_present(self):
        shape, rank, n_procs = (6, 5, 4), 2, 4
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=0)
        run = parallel_cp_als(
            tensor, rank, n_procs, kernel="sampled-dimtree", n_samples=8,
            n_iter_max=2, tol=0.0, seed=5,
        )
        labels = [record.label for record in run.machine.records]
        assert any(label.startswith(GATHER_LABEL) for label in labels)
        assert any(label.startswith(GRAM_LABEL) for label in labels)


def _collectives_without_gram(run, gather_label, reduce_label):
    """(label minus its kernel prefix, group, words per rank) of every record
    except the Gram All-Reduces."""
    out = []
    for record in run.machine.records:
        if record.label.startswith(GRAM_LABEL):
            continue
        for prefix in (gather_label, reduce_label):
            if record.label.startswith(prefix):
                out.append(
                    (record.label[len(prefix):], tuple(record.group), record.words_per_rank)
                )
                break
        else:
            raise AssertionError(f"unexpected collective {record.label!r}")
    return out


class TestSubclassContract:
    def test_subclasses_the_exact_kernel(self):
        assert issubclass(DistributedSampledDimtreeKernel, DistributedDimtreeKernel)

    @pytest.mark.parametrize(
        "shape,rank,n_procs",
        [((12, 10, 8), 3, 8), ((6, 5, 4, 5), 2, 6), ((16, 16, 16), 4, 8)],
    )
    def test_measured_collectives_are_dimtree_plus_gram(self, shape, rank, n_procs):
        """Without its Gram All-Reduces, a sampled-dimtree run issues the exact
        dimtree run's collectives one for one: same label, group and words.
        """
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=0)
        runs = {
            kernel: parallel_cp_als(
                tensor, rank, n_procs, kernel=kernel, n_samples=16,
                n_iter_max=SWEEPS, tol=0.0, seed=5,
            )
            for kernel in ("dimtree", "sampled-dimtree")
        }
        exact = _collectives_without_gram(
            runs["dimtree"], exact_dimtree.GATHER_LABEL, exact_dimtree.REDUCE_LABEL
        )
        fused = _collectives_without_gram(
            runs["sampled-dimtree"], GATHER_LABEL, REDUCE_LABEL
        )
        assert exact
        assert fused == exact


class TestSequentialEquivalence:
    def test_draws_bitwise_equal_to_sequential(self):
        shape, rank, draws = (12, 10, 8), 3, 16
        from repro.tensor.dense import as_ndarray

        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=0)
        data = as_ndarray(tensor)
        seq = SampledDimtreeKernel(n_samples=draws, seed=7)
        par = DistributedSampledDimtreeKernel((4, 1, 1), n_samples=draws, seed=7)
        rng = np.random.default_rng(0)
        factors = [rng.standard_normal((s, rank)) for s in shape]
        for _ in range(3):
            for mode in range(3):
                a = seq.mttkrp(data, factors, mode)
                b = par.mttkrp(data, factors, mode)
                if mode == 0:
                    # the grid splits only mode 0: its output evaluation is
                    # row-partitioned, hence bitwise equal to sequential
                    assert np.array_equal(a, b)
                else:
                    assert np.allclose(a, b, atol=1e-12)
                new = rng.standard_normal(factors[mode].shape)
                factors[mode] = new
                seq.factor_updated(mode, new)
                par.factor_updated(mode, new)
        # identical draw schedule and identical generator consumption
        assert [(r.mode, r.free_modes, r.n_draws, r.n_distinct) for r in seq.draw_log] == par.draw_log
        assert (
            seq._rng.bit_generator.state == par._rng.bit_generator.state
        )

    @pytest.mark.parametrize("shape,rank,n_procs,draws", CASES)
    def test_fits_match_sequential_1e10(self, shape, rank, n_procs, draws):
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=0)
        par = parallel_cp_als(
            tensor, rank, n_procs, kernel="sampled-dimtree", n_samples=draws,
            n_iter_max=SWEEPS, tol=0.0, seed=5,
        )
        seq_kernel = SampledDimtreeKernel(
            n_samples=draws,
            seed=np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0]),
        )
        seq = cp_als(
            tensor, rank, n_iter_max=SWEEPS, tol=0.0, seed=5, kernel=seq_kernel
        )
        gap = max(abs(a - b) for a, b in zip(seq.fits, par.als.fits))
        assert gap <= 1e-10


class TestDriverIntegration:
    def test_registered_in_parallel_registry(self):
        assert "sampled-dimtree" in PARALLEL_KERNEL_NAMES
