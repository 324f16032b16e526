"""Tests for the fused sampled dimension tree (repro.core.sampled_dimtree)."""

import numpy as np
import pytest

from repro.core.dimtree import DimensionTree, DimensionTreeKernel, FactorGate
from repro.core.kernels import mttkrp
from repro.core.sampled_dimtree import (
    FUSED_DISTRIBUTIONS,
    FusedSamplerCache,
    FusedSweepCost,
    SampledDimtreeKernel,
)
from repro.costmodel.fused_model import (
    sampled_dimtree_sweep_cost,
    sampled_tree_sweep_cost,
)
from repro.cp.als import KERNEL_NAMES, cp_als
from repro.exceptions import ParameterError
from repro.resilience import CheckpointStore
from repro.sketch.parallel.sampled_dimtree import DistributedSampledDimtreeKernel
from repro.sketch.sampling import draw_krp_samples
from repro.tensor.random import noisy_low_rank_tensor, random_factors, random_tensor


def fixed_sweeps(tensor, rank, kernel, sweeps=4, seed=1, **kwargs):
    return cp_als(
        tensor, rank, n_iter_max=sweeps, tol=0.0, seed=seed, kernel=kernel, **kwargs
    )


#: Every owner of a residual gate, built with the given gate options.
GATE_OWNERS = {
    "FactorGate": lambda **gate: FactorGate(3, **gate),
    "DimensionTree": lambda **gate: DimensionTree(np.ones((2, 3, 4)), **gate),
    "DimensionTreeKernel": DimensionTreeKernel,
    "SampledDimtreeKernel": SampledDimtreeKernel,
}


class TestFactorGate:
    def test_exact_mode_is_pure_identity(self):
        gate = FactorGate(2)
        a = np.ones((3, 2))
        assert gate.register(0, a)  # first registration invalidates
        assert not gate.register(0, a)  # same object: no change
        assert gate.register(0, a.copy())  # new object: invalidates
        assert gate.versions[0] == 2
        assert gate.skipped == 0

    def test_residual_mode_absorbs_small_drift(self):
        gate = FactorGate(1, invalidation="residual", residual_tol=0.5)
        a = np.ones((4, 2))
        gate.register(0, a)
        v = gate.versions[0]
        small = a + 1e-3
        assert not gate.register(0, small)  # drift ~5e-4 absorbed
        assert gate.versions[0] == v
        assert gate.skipped == 1
        assert 0.0 < gate.drift[0] < 0.5

    def test_residual_mode_accumulates_until_tolerance(self):
        gate = FactorGate(1, invalidation="residual", residual_tol=0.1)
        a = np.ones((4, 2))
        gate.register(0, a)
        v = gate.versions[0]
        current = a
        invalidated = False
        for _ in range(100):
            current = current * 1.02  # ~2% relative drift per step
            if gate.register(0, current):
                invalidated = True
                break
        assert invalidated
        assert gate.versions[0] == v + 1
        assert gate.drift[0] == 0.0  # drift resets on invalidation

    def test_residual_mode_shape_change_invalidates(self):
        gate = FactorGate(1, invalidation="residual", residual_tol=10.0)
        gate.register(0, np.ones((4, 2)))
        assert gate.register(0, np.ones((5, 2)))

    def test_rejects_unknown_policy(self):
        with pytest.raises(ParameterError):
            FactorGate(2, invalidation="lazy")
        with pytest.raises(ParameterError):
            DimensionTree(np.ones((2, 2)), invalidation="lazy")

    @pytest.mark.parametrize("owner", sorted(GATE_OWNERS))
    @pytest.mark.parametrize(
        "bad, name",
        [
            ({"invalidation": "bogus"}, "invalidation"),
            ({"residual_tol": -1}, "residual_tol"),
            ({"residual_tol": float("nan")}, "residual_tol"),
            ({"residual_tol": "0.1"}, "residual_tol"),
        ],
        ids=["policy", "negative", "nan", "string"],
    )
    def test_bad_gate_options_rejected_at_construction(self, owner, bad, name):
        """A kernel instance is the only way to ask for residual gating, so
        its constructor checks the options before any MTTKRP runs."""
        gate = {"invalidation": "residual", **bad}
        with pytest.raises(ParameterError, match=name):
            GATE_OWNERS[owner](**gate)

    @pytest.mark.parametrize("owner", sorted(GATE_OWNERS))
    def test_any_non_negative_tolerance_accepted(self, owner):
        for tol in (0, 0.0, np.float64(0.5), float("inf")):
            GATE_OWNERS[owner](invalidation="residual", residual_tol=tol)

    def test_force_invalidates_same_object(self):
        gate = FactorGate(1)
        a = np.ones((3, 2))
        gate.register(0, a)
        v = gate.versions[0]
        assert not gate.register(0, a)
        assert gate.register(0, a, force=True)
        assert gate.versions[0] == v + 1

    def test_explicit_update_factor_sees_inplace_mutation(self):
        """update_factor must invalidate even when handed the same array
        object whose contents were mutated in place (regression: the gate's
        identity short-circuit must not swallow explicit updates)."""
        from repro.core.reference import mttkrp_reference
        from repro.tensor.random import random_factors, random_tensor

        tensor = random_tensor((4, 5, 6), seed=3)
        factors = [np.asarray(f) for f in random_factors((4, 5, 6), 2, seed=4)]
        tree = DimensionTree(tensor)
        tree.mttkrp(factors, 0)  # populate the cache
        factors[1] *= 2.0  # in-place: identity detection cannot see this
        tree.update_factor(1, factors[1])
        result = tree.mttkrp(factors, 0)
        assert np.allclose(result, mttkrp_reference(tensor, factors, 0), atol=1e-10)


class TestDegenerateEquivalence:
    """cache=False is bitwise the plain per-call sampled kernel."""

    @pytest.mark.parametrize(
        "distribution,registry_name",
        [("product-leverage", "sampled"), ("tree-leverage", "sampled-tree")],
    )
    def test_fits_match_registry_kernel_bitwise(self, distribution, registry_name):
        tensor = noisy_low_rank_tensor((8, 9, 10), 3, noise_level=0.02, seed=0)
        plain = fixed_sweeps(tensor, 3, registry_name, seed=5)
        kernel = SampledDimtreeKernel(
            distribution=distribution,
            cache=False,
            seed=np.random.SeedSequence(5).spawn(1)[0],
        )
        fused = fixed_sweeps(tensor, 3, kernel, seed=5)
        assert fused.fits == plain.fits

    def test_registered_name_resolves(self):
        assert "sampled-dimtree" in KERNEL_NAMES
        tensor = noisy_low_rank_tensor((6, 7, 8), 2, noise_level=0.02, seed=1)
        result = fixed_sweeps(tensor, 2, "sampled-dimtree", sweeps=3, seed=2)
        assert len(result.fits) == 3
        assert all(np.isfinite(f) for f in result.fits)

    def test_seed_reproducible(self):
        tensor = noisy_low_rank_tensor((6, 7, 8), 2, noise_level=0.02, seed=1)
        a = fixed_sweeps(tensor, 2, "sampled-dimtree", sweeps=3, seed=9)
        b = fixed_sweeps(tensor, 2, "sampled-dimtree", sweeps=3, seed=9)
        assert a.fits == b.fits


class TestFusedEstimator:
    @pytest.mark.parametrize("shape", [(6, 7, 8), (5, 4, 6, 5)])
    @pytest.mark.parametrize("distribution", FUSED_DISTRIBUTIONS)
    def test_large_draw_estimates_approach_exact(self, shape, distribution):
        """The fused estimator is unbiased: many draws recover the exact MTTKRP."""
        tensor = random_tensor(shape, seed=3)
        factors = random_factors(shape, 3, seed=4)
        kernel = SampledDimtreeKernel(
            n_samples=60000, distribution=distribution, seed=11
        )
        for mode in range(len(shape)):
            est = kernel.mttkrp(tensor, factors, mode)
            ref = mttkrp(tensor, factors, mode)
            rel = np.linalg.norm(est - ref) / np.linalg.norm(ref)
            assert rel < 0.25, (mode, rel)

    def test_modes_off_the_root_have_lower_variance(self):
        """Rao-Blackwellization: leaves served from a cached partial sample
        fewer modes, so their estimates are tighter than the root-served one."""
        shape, rank, draws, trials = (8, 8, 8), 3, 64, 12
        tensor = random_tensor(shape, seed=5)
        factors = random_factors(shape, rank, seed=6)
        refs = [mttkrp(tensor, factors, m) for m in range(3)]
        errs = np.zeros(3)
        kernel = SampledDimtreeKernel(n_samples=draws, seed=21)
        for _ in range(trials):
            for mode in range(3):
                est = kernel.mttkrp(tensor, factors, mode)
                errs[mode] += np.linalg.norm(est - refs[mode]) / np.linalg.norm(
                    refs[mode]
                )
        # mode 0's leaf parent is the root (samples 2 modes, raw fibers);
        # modes 1 and 2 sample a single mode of the cached partial.
        assert errs[1] < errs[0]
        assert errs[2] < errs[0]

    def test_root_reads_at_most_one_per_sweep_three_way(self):
        """At N = 3 only the (1, 2) partial needs the tensor: <= 1 root read
        per steady sweep — already below the exact dimtree's 2."""
        tensor = noisy_low_rank_tensor((10, 10, 10), 3, noise_level=0.02, seed=0)
        kernel = SampledDimtreeKernel(n_samples=16, seed=2)
        fixed_sweeps(tensor, 3, kernel, sweeps=5)
        for sweep in kernel.per_sweep_costs()[1:]:
            assert sweep.root_reads <= 1

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ParameterError):
            SampledDimtreeKernel(distribution="leverage")
        with pytest.raises(ParameterError):
            FusedSamplerCache("importance")

    @pytest.mark.parametrize("n_samples", [0, -3, 2.5, True])
    @pytest.mark.parametrize(
        "make",
        [
            lambda n: SampledDimtreeKernel(n_samples=n),
            lambda n: DistributedSampledDimtreeKernel((2, 1, 1), n_samples=n),
        ],
        ids=["sequential", "distributed"],
    )
    def test_rejects_bad_n_samples(self, make, n_samples):
        with pytest.raises(ParameterError, match="n_samples"):
            make(n_samples)


class TestCountedEqualsReplay:
    @pytest.mark.parametrize("shape,rank,draws", [
        ((8, 9, 10), 3, 16),
        ((6, 7, 5, 6), 2, 32),
        ((5, 4, 6, 5, 3), 2, 8),
    ])
    @pytest.mark.parametrize("distribution", ["tree-leverage", "product-leverage"])
    def test_steady_sweep_counted_equals_replay(self, shape, rank, draws, distribution):
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=0)
        kernel = SampledDimtreeKernel(
            n_samples=draws, distribution=distribution, seed=3
        )
        fixed_sweeps(tensor, rank, kernel)
        counted = kernel.per_sweep_costs()[-1]
        distinct = [r.n_distinct for r in kernel.draw_log[-len(shape):]]
        replay = sampled_dimtree_sweep_cost(
            shape, rank, draws, distinct, distribution=distribution
        )
        assert counted.to_dict() == replay.to_dict()

    def test_first_sweep_counted_equals_replay(self):
        shape, rank, draws = (8, 9, 10), 3, 16
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=0)
        kernel = SampledDimtreeKernel(n_samples=draws, seed=3)
        fixed_sweeps(tensor, rank, kernel, sweeps=1)
        counted = kernel.per_sweep_costs()[0]
        distinct = [r.n_distinct for r in kernel.draw_log[: len(shape)]]
        replay = sampled_dimtree_sweep_cost(
            shape, rank, draws, distinct, first_sweep=True
        )
        assert counted.to_dict() == replay.to_dict()

    @pytest.mark.parametrize("shape,rank,draws", [
        pytest.param((6, 7, 5, 6), 2, 32, id="4way"),
        pytest.param((5, 4, 6, 5, 3), 2, 8, id="5way"),
    ])
    def test_every_sweep_counted_equals_replay(self, shape, rank, draws):
        """Every sweep, the cold first one included, recomputes each internal
        node once: the counted ledger equals the replay on all of them."""
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=0)
        kernel = SampledDimtreeKernel(n_samples=draws, seed=3)
        fixed_sweeps(tensor, rank, kernel)
        n_modes = len(shape)
        for sweep, counted in enumerate(kernel.per_sweep_costs()):
            log = kernel.draw_log[sweep * n_modes : (sweep + 1) * n_modes]
            replay = sampled_dimtree_sweep_cost(
                shape, rank, draws, [r.n_distinct for r in log], first_sweep=sweep == 0
            )
            assert counted.to_dict() == replay.to_dict()

    def test_degenerate_sweep_counted_equals_baseline_replay(self):
        shape, rank, draws = (8, 9, 10), 3, 16
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=0)
        kernel = SampledDimtreeKernel(n_samples=draws, cache=False, seed=3)
        fixed_sweeps(tensor, rank, kernel)
        counted = kernel.per_sweep_costs()[-1]
        distinct = [r.n_distinct for r in kernel.draw_log[-len(shape):]]
        replay = sampled_tree_sweep_cost(shape, rank, draws, distinct)
        assert counted.to_dict() == replay.to_dict()

    def test_sweep_cost_subtraction_and_totals(self):
        a = FusedSweepCost(tree_flops=10, draw_flops=5, eval_flops=1, eval_words=2)
        b = FusedSweepCost(tree_flops=4, draw_flops=1)
        delta = a - b
        assert delta.tree_flops == 6 and delta.draw_flops == 4
        assert a.flops == 16
        assert a.words == 2
        assert a.to_dict()["flops"] == 16


class TestSamplerCacheSharing:
    def test_trees_rebuilt_only_on_version_bump(self):
        shape, rank = (8, 9, 10), 3
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=0)
        kernel = SampledDimtreeKernel(n_samples=8, seed=2)
        fixed_sweeps(tensor, rank, kernel, sweeps=3)
        # Steady state at N = 3: tree 2 rebuilds at mode 0 (factor 2 changed
        # at the previous sweep's mode-2 solve) and tree 1 at mode 2 (factor
        # 1 changed at this sweep's mode-1 solve) — one rebuild per factor
        # per sweep, versus N - 1 per *call* for the per-call sampler.
        costs = kernel.per_sweep_costs()
        per_factor = {k: 2 * shape[k] * rank * rank for k in range(3)}
        steady = costs[-1].build_flops
        assert steady == per_factor[1] + per_factor[2]

    def test_residual_gate_holds_sampler_and_tree_together(self):
        shape, rank = (8, 9, 10), 3
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.0, seed=0)
        # Huge tolerance: after the first registration nothing ever
        # invalidates, so no partial is recomputed and no sampler rebuilt.
        kernel = SampledDimtreeKernel(
            n_samples=8, seed=2, invalidation="residual", residual_tol=1e9
        )
        fixed_sweeps(tensor, rank, kernel, sweeps=4)
        for sweep in kernel.per_sweep_costs()[1:]:
            assert sweep.root_reads == 0
            assert sweep.tree_flops == 0
            assert sweep.build_flops == 0
        assert kernel.tree.skipped_invalidations > 0

    @pytest.mark.parametrize("distribution", ["uniform", "product-leverage"])
    def test_cache_draws_like_a_fresh_draw(self, distribution):
        """The cache and ``draw_krp_samples`` share one draw path.

        For these distributions the cached per-factor state is what a fresh
        draw prepares, so the same stream gives bitwise the same sample set.
        """
        factors = random_factors((7, 8, 9), 3, seed=4)
        cached = FusedSamplerCache(distribution).draw(
            factors, (1, 2), 0, 50, np.random.default_rng(6), [0, 0]
        )
        fresh = draw_krp_samples(
            factors, 0, 50, distribution=distribution, seed=np.random.default_rng(6)
        )
        for name in ("mode", "modes", "dims", "n_draws", "distribution"):
            assert getattr(cached, name) == getattr(fresh, name)
        for name in ("indices", "counts", "probabilities"):
            assert np.array_equal(getattr(cached, name), getattr(fresh, name))

    def test_rebind_restarts_what_is_counted_beside_the_tree(self):
        """A new tensor rebuilds the tree, as in ``DimensionTreeKernel``, and
        restarts the sweeps, the draw log and the sampling counters."""
        t1 = noisy_low_rank_tensor((5, 4, 3), 2, noise_level=0.05, seed=18)
        t2 = noisy_low_rank_tensor((6, 5, 4), 2, noise_level=0.05, seed=19)
        kernel = SampledDimtreeKernel(n_samples=8, seed=2)
        fixed_sweeps(t1, 2, kernel, sweeps=2)
        fixed_sweeps(t2, 2, kernel, sweeps=3)
        fresh = SampledDimtreeKernel(n_samples=8, seed=2)
        fixed_sweeps(t2, 2, fresh, sweeps=3)
        assert len(kernel.per_sweep_costs()) == 3
        assert len(kernel.draw_log) == 9
        assert kernel.counters().n_draws == 9 * 8
        for mine, theirs in zip(kernel.per_sweep_costs(), fresh.per_sweep_costs()):
            assert (mine.tree_flops, mine.build_flops, mine.n_draws) == (
                theirs.tree_flops,
                theirs.build_flops,
                theirs.n_draws,
            )

    def test_resume_on_the_bound_instance_restarts_from_the_snapshot(self):
        """Regression: a resume with the instance still bound to the tensor
        kept the first run's draw log and counters instead of the snapshot's."""
        tensor = noisy_low_rank_tensor((12, 10, 8), 3, noise_level=0.05, seed=22)
        kwargs = dict(n_iter_max=5, tol=0.0, seed=23)
        kernel = SampledDimtreeKernel(n_samples=16, seed=4)
        store = CheckpointStore()
        cp_als(tensor, 3, kernel=kernel, checkpoint_store=store, **kwargs)
        resumed = cp_als(tensor, 3, kernel=kernel, resume_from=store.at_sweep(2), **kwargs)
        fresh = SampledDimtreeKernel(n_samples=16, seed=4)
        expected = cp_als(tensor, 3, kernel=fresh, resume_from=store.at_sweep(2), **kwargs)
        assert resumed.fits == expected.fits
        assert len(kernel.draw_log) == 15
        assert kernel.draw_log == fresh.draw_log
        assert kernel.per_sweep_costs() == fresh.per_sweep_costs()
        assert kernel.counters() == fresh.counters()


class TestResidualGatedALS:
    def test_dimtree_residual_cuts_root_reads_without_degrading_fit(self):
        """ISSUE 5 acceptance: residual gating brings full-tensor contractions
        per sweep below 2 on a converging run, with the final fit within the
        tolerance of the exact-invalidation run."""
        shape, rank, sweeps, tol = (16, 16, 16), 4, 20, 1e-2
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.01, seed=0)
        exact = cp_als(
            tensor, rank, n_iter_max=sweeps, tol=0.0, seed=1, kernel="dimtree"
        )
        gated_kernel = DimensionTreeKernel(invalidation="residual", residual_tol=tol)
        gated = cp_als(
            tensor, rank, n_iter_max=sweeps, tol=0.0, seed=1, kernel=gated_kernel
        )
        late = gated_kernel.per_sweep_costs()[sweeps // 2 :]
        mean_roots = sum(s.root_reads for s in late) / len(late)
        assert mean_roots < 2.0
        assert min(s.root_reads for s in late) < 2
        assert gated_kernel.tree.skipped_invalidations > 0
        assert abs(gated.final_fit - exact.final_fit) <= tol

    def test_huge_tolerance_freezes_the_cache(self):
        shape, rank = (10, 10, 10), 3
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.01, seed=0)
        run = cp_als(
            tensor,
            rank,
            n_iter_max=15,
            tol=0.0,
            seed=1,
            kernel=DimensionTreeKernel(invalidation="residual", residual_tol=1e9),
        )
        # With an absurd tolerance the cache freezes after the first sweep,
        # so the fits stop moving once the served MTTKRPs go stale.
        assert len(run.fits) == 15
        exact = cp_als(tensor, rank, n_iter_max=15, tol=0.0, seed=1, kernel="dimtree")
        assert run.fits != exact.fits

    def test_exact_default_matches_plain_dimtree(self):
        shape, rank = (8, 9, 10), 3
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=0)
        a = cp_als(tensor, rank, n_iter_max=5, tol=0.0, seed=1, kernel="dimtree")
        b = cp_als(
            tensor,
            rank,
            n_iter_max=5,
            tol=0.0,
            seed=1,
            kernel=DimensionTreeKernel(invalidation="exact"),
        )
        assert a.fits == b.fits
