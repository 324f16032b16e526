"""Unit tests for the dimension-tree MTTKRP engine (repro.core.dimtree)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.dimtree import (
    DimensionTree,
    DimensionTreeKernel,
    MultiSweepTreeKernel,
    SweepCost,
    dimtree_sweep_cost,
    multisweep_sweep_costs,
)
from repro.core.kernels import gemm_mttkrp
from repro.core.reference import mttkrp_reference
from repro.core.sweep_kernel import PerCallKernel, SweepKernel, as_sweep_kernel, check_kernel_name
from repro.cp.als import cp_als
from repro.exceptions import ParameterError
from repro.observe import tracing
from repro.resilience import CheckpointStore
from repro.tensor.dense import as_ndarray
from repro.tensor.random import noisy_low_rank_tensor, random_factors, random_tensor

SHAPES = [(3, 4, 5), (3, 2, 4, 2), (2, 3, 2, 2, 3)]

#: ``(shape, rank, memory order)`` inputs on both sides of the guard of the
#: root children's one-GEMM step.
GUARD_CASES = [
    # Lopsided 4-way: both root children run as one GEMM.
    pytest.param((12, 4, 4, 3), 4, "C", id="lopsided-gemm"),
    # R exceeds a root child's kept (and the other's removed) extent product,
    # so an unguarded GEMM would form a KRP twice the tensor's size.
    pytest.param((2, 30, 30), 4, "C", id="rank-chain"),
    # A Fortran-ordered tensor has no free C-order unfolding.
    pytest.param((12, 4, 4, 3), 4, "F", id="fortran-chain"),
]


def in_order(tensor, order):
    """``tensor`` itself, or its data as a Fortran-ordered array for ``"F"``."""
    return np.asfortranarray(as_ndarray(tensor)) if order == "F" else tensor


def problem(shape, rank, seed=0, order="C"):
    tensor = in_order(random_tensor(shape, seed=seed), order)
    factors = random_factors(shape, rank, seed=seed + 1)
    return tensor, factors


def assert_matches_reference(tree, tensor, factors):
    """Every mode's MTTKRP equals Definition 2.1 within 1e-12 relative."""
    for mode in range(len(factors)):
        ref = mttkrp_reference(tensor, factors, mode)
        got = tree.mttkrp(factors, mode)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def als_sweep(kernel, tensor, factors):
    """One sweep in ALS order: each mode's MTTKRP, then a new factor object."""
    for mode in range(len(factors)):
        kernel.mttkrp(tensor, factors, mode)
        factors[mode] = 0.5 * factors[mode]


class TestDimensionTreeCorrectness:
    @pytest.mark.parametrize(
        "shape,rank,order",
        [pytest.param(shape, 3, "C", id=f"shape{i}") for i, shape in enumerate(SHAPES)]
        + GUARD_CASES,
    )
    def test_matches_reference_all_modes(self, shape, rank, order):
        """3-, 4-, and 5-way, on both sides of the root-GEMM guard: every mode
        equals Definition 2.1 up to association."""
        tensor, factors = problem(shape, rank, order=order)
        assert_matches_reference(DimensionTree(tensor), tensor, factors)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_cached_second_call_matches(self, shape):
        tensor, factors = problem(shape, 2, seed=3)
        tree = DimensionTree(tensor)
        first = [tree.mttkrp(factors, m) for m in range(len(shape))]
        steps_after_first = tree.contractions
        second = [tree.mttkrp(factors, m) for m in range(len(shape))]
        # identical factors: all partials valid, no new contractions at all
        assert tree.contractions == steps_after_first
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_invalidation_on_factor_replacement(self, shape):
        """Replacing one factor must invalidate exactly the dependent partials."""
        tensor, factors = problem(shape, 2, seed=4)
        tree = DimensionTree(tensor)
        for m in range(len(shape)):
            tree.mttkrp(factors, m)
        rng = np.random.default_rng(99)
        for changed in range(len(shape)):
            new_factors = list(factors)
            new_factors[changed] = rng.standard_normal(np.asarray(factors[changed]).shape)
            for mode in range(len(shape)):
                ref = mttkrp_reference(tensor, new_factors, mode)
                assert np.allclose(tree.mttkrp(new_factors, mode), ref, atol=1e-10)

    def test_explicit_update_factor(self):
        tensor, factors = problem((3, 4, 5), 2, seed=5)
        tree = DimensionTree(tensor)
        tree.mttkrp(factors, 0)
        new0 = np.random.default_rng(6).standard_normal(np.asarray(factors[0]).shape)
        tree.update_factor(0, new0)
        factors = [new0] + list(factors[1:])
        ref = mttkrp_reference(tensor, factors, 1)
        assert np.allclose(tree.mttkrp(factors, 1), ref, atol=1e-10)

    def test_uncached_engine_matches_reference(self):
        tensor, factors = problem((3, 4, 5), 3, seed=7)
        tree = DimensionTree(tensor, cache=False)
        for mode in range(3):
            ref = mttkrp_reference(tensor, factors, mode)
            assert np.allclose(tree.mttkrp(factors, mode), ref, atol=1e-10)

    def test_rejects_one_way_tensor(self):
        with pytest.raises(ParameterError):
            DimensionTree(np.ones(4))

    def test_missing_factor_rejected(self):
        tensor, factors = problem((3, 4, 5), 2, seed=9)
        tree = DimensionTree(tensor)
        factors = list(factors)
        factors[1] = None
        with pytest.raises(ParameterError):
            tree.mttkrp(factors, 0)


#: ``(shape, rank)`` of the 3-, 4- and 5-way ledger checks.
COUNTED_CASES = [((3, 4, 5), 2), ((3, 2, 4, 2), 3), ((2, 3, 2, 2, 3), 2)]


class TestCountersMatchModel:
    @pytest.mark.parametrize(
        "shape,rank,order",
        [pytest.param(shape, rank, "C", id=f"{len(shape)}way") for shape, rank in COUNTED_CASES]
        + GUARD_CASES,
    )
    def test_als_sweep_counters_equal_replay(self, shape, rank, order):
        """Every counted sweep, the cold first one and the resumed ones
        included, equals the modelled sweep cost exactly."""
        tensor = in_order(noisy_low_rank_tensor(shape, rank, noise_level=0.05, seed=10), order)
        model = dimtree_sweep_cost(shape, rank)
        kernel = DimensionTreeKernel()
        store = CheckpointStore()
        kwargs = dict(n_iter_max=4, tol=0.0, seed=11)
        cp_als(tensor, rank, kernel=kernel, checkpoint_store=store, **kwargs)
        assert kernel.per_sweep_costs() == [model] * 4
        resumed = DimensionTreeKernel()
        cp_als(tensor, rank, kernel=resumed, resume_from=store.at_sweep(2), **kwargs)
        assert resumed.per_sweep_costs() == [model] * 2

    @pytest.mark.parametrize("shape,rank", COUNTED_CASES)
    def test_uncached_chain_counters_equal_independent_replay(self, shape, rank):
        """cache=False reads the tensor N times a sweep: the N modelled chains."""
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.05, seed=12)
        kernel = DimensionTreeKernel(cache=False)
        cp_als(tensor, rank, n_iter_max=3, tol=0.0, seed=13, kernel=kernel)
        model = dimtree_sweep_cost(shape, rank, cache=False)
        assert model.root_reads == len(shape)
        assert kernel.per_sweep_costs() == [model] * 3

    def test_tree_touches_tensor_twice_per_sweep(self):
        shape, rank = (4, 4, 4, 4), 2
        tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.05, seed=14)
        kernel = DimensionTreeKernel()
        cp_als(tensor, rank, n_iter_max=3, tol=0.0, seed=15, kernel=kernel)
        steady = kernel.per_sweep_costs()[-1]
        assert steady.root_reads == 2
        independent = dimtree_sweep_cost(shape, rank, cache=False)
        assert independent.root_reads == len(shape)
        assert steady.flops < independent.flops

    def test_sweep_cost_subtraction(self):
        a = SweepCost(contractions=5, flops=10, words=20, root_reads=2)
        b = SweepCost(contractions=2, flops=4, words=8, root_reads=1)
        assert a - b == SweepCost(contractions=3, flops=6, words=12, root_reads=1)


class TestDimtreeKernelInALS:
    @pytest.mark.parametrize(
        "shape,rank,order",
        [
            pytest.param((10, 9, 8), 3, "C", id="3way"),
            pytest.param((6, 5, 4, 5), 2, "C", id="4way"),
            pytest.param((4, 3, 4, 3, 4), 2, "C", id="5way"),
        ]
        + GUARD_CASES,
    )
    def test_fit_trajectory_matches_einsum(self, shape, rank, order):
        """Acceptance: the dimtree kernel's ALS fits equal einsum's to 1e-10,
        on both sides of the root-GEMM guard."""
        tensor = in_order(noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=16), order)
        a = cp_als(tensor, rank, n_iter_max=12, tol=0.0, seed=17, kernel="einsum")
        b = cp_als(tensor, rank, n_iter_max=12, tol=0.0, seed=17, kernel="dimtree")
        assert np.allclose(a.fits, b.fits, atol=1e-10)

    def test_kernel_rebinds_to_new_tensor(self):
        kernel = DimensionTreeKernel()
        t1 = noisy_low_rank_tensor((5, 4, 3), 2, noise_level=0.05, seed=18)
        t2 = noisy_low_rank_tensor((6, 5, 4), 2, noise_level=0.05, seed=19)
        a1 = cp_als(t1, 2, n_iter_max=3, tol=0.0, seed=20, kernel=kernel)
        a2 = cp_als(t2, 2, n_iter_max=3, tol=0.0, seed=21, kernel=kernel)
        b1 = cp_als(t1, 2, n_iter_max=3, tol=0.0, seed=20, kernel="einsum")
        b2 = cp_als(t2, 2, n_iter_max=3, tol=0.0, seed=21, kernel="einsum")
        assert np.allclose(a1.fits, b1.fits, atol=1e-10)
        assert np.allclose(a2.fits, b2.fits, atol=1e-10)

    def test_per_sweep_costs_sane_after_rebind(self):
        """Regression: a tree rebuild must restart the sweep marks — deltas
        taken against the old tree's totals came out negative."""
        kernel = DimensionTreeKernel()
        t1 = noisy_low_rank_tensor((5, 4, 3), 2, noise_level=0.05, seed=18)
        t2 = noisy_low_rank_tensor((6, 5, 4), 2, noise_level=0.05, seed=19)
        cp_als(t1, 2, n_iter_max=3, tol=0.0, seed=20, kernel=kernel)
        cp_als(t2, 2, n_iter_max=3, tol=0.0, seed=21, kernel=kernel)
        per_sweep = kernel.per_sweep_costs()
        assert len(per_sweep) == 3  # the rebind dropped run 1's sweeps
        model = dimtree_sweep_cost((6, 5, 4), 2)
        for sweep in per_sweep:
            assert sweep.flops > 0 and sweep.words > 0
            assert sweep == model

    def test_resume_on_the_bound_instance_restarts_from_the_snapshot(self):
        """Regression: a resume with the instance still bound to the tensor
        kept the first run's sweeps and counters instead of the snapshot's."""
        tensor = noisy_low_rank_tensor((12, 10, 8), 3, noise_level=0.05, seed=22)
        kwargs = dict(n_iter_max=5, tol=0.0, seed=23)
        kernel = DimensionTreeKernel()
        store = CheckpointStore()
        cp_als(tensor, 3, kernel=kernel, checkpoint_store=store, **kwargs)
        resumed = cp_als(tensor, 3, kernel=kernel, resume_from=store.at_sweep(2), **kwargs)
        fresh = DimensionTreeKernel()
        expected = cp_als(tensor, 3, kernel=fresh, resume_from=store.at_sweep(2), **kwargs)
        assert resumed.fits == expected.fits
        assert len(kernel.per_sweep_costs()) == 3
        assert kernel.per_sweep_costs() == fresh.per_sweep_costs()
        assert kernel.counters() == fresh.counters()

    def test_dimtree_name_registered(self):
        from repro.cp.als import KERNEL_NAMES

        assert "dimtree" in KERNEL_NAMES


class TestSweepKernelProtocol:
    def test_per_call_adapter(self):
        calls = []

        def fn(tensor, factors, mode):
            calls.append(mode)
            return np.zeros((np.asarray(tensor).shape[mode], 2))

        kernel = as_sweep_kernel(fn)
        assert isinstance(kernel, PerCallKernel)
        kernel.begin_sweep(1)  # no-op hooks must exist
        kernel.factor_updated(0, np.zeros((3, 2)))
        out = kernel.mttkrp(np.zeros((3, 4)), [None, np.zeros((4, 2))], 0)
        assert out.shape == (3, 2)
        assert calls == [0]
        assert kernel.exact
        assert kernel.capture_state() is None
        kernel.restore_state(None)

    def test_sweep_kernel_passthrough(self):
        kernel = DimensionTreeKernel()
        assert as_sweep_kernel(kernel) is kernel

    def test_as_sweep_kernel_rejects_non_callable(self):
        with pytest.raises(ParameterError):
            as_sweep_kernel(42)

    def test_check_kernel_name_accepts_and_rejects(self):
        assert check_kernel_name("a", ("a", "b")) == "a"
        with pytest.raises(ParameterError, match="use one of a, b or a callable"):
            check_kernel_name("c", ("a", "b"))
        with pytest.raises(ParameterError, match="parallel MTTKRP kernel"):
            check_kernel_name("c", ("a", "b"), registry="parallel", allow_callable=False)


class TestRootGemm:
    """The root children's one-GEMM step, its guard, and its memory."""

    @pytest.mark.parametrize(
        "shape,rank,order,path",
        [
            pytest.param((12, 4, 4, 3), 4, "C", "gemm", id="lopsided-gemm"),
            pytest.param((6, 5), 2, "C", "gemm", id="matrix-gemm"),
            pytest.param((2, 30, 30), 4, "C", "chain", id="rank-chain"),
            pytest.param((12, 4, 4, 3), 4, "F", "chain", id="fortran-chain"),
        ],
    )
    def test_root_path_counters_per_steady_sweep(self, shape, rank, order, path):
        """Two root children per steady sweep, all on the path the guard picks."""
        tensor, factors = problem(shape, rank, seed=30, order=order)
        kernel = DimensionTreeKernel()
        als_sweep(kernel, tensor, factors)
        with tracing() as session:
            als_sweep(kernel, tensor, factors)
        other = "chain" if path == "gemm" else "gemm"
        assert session.metrics.counter(f"dimtree.root.{path}") == 2
        assert session.metrics.counter(f"dimtree.root.{other}") == 0

    @pytest.mark.parametrize("kept", [(1,), (0, 2), (1, 2)])
    def test_gemm_declines_a_removed_set_in_two_pieces(self, kept):
        """Removed modes on both sides of a kept one have no free unfolding:
        the GEMM returns ``None``, though it takes the leading and the
        trailing kept block of the same size."""
        tensor, factors = problem((12, 4, 4, 3), 3, seed=31)
        data = as_ndarray(tensor)
        assert gemm_mttkrp(data, factors, kept, 3) is None
        size = len(kept)
        for block in (tuple(range(size)), tuple(range(4 - size, 4))):
            assert gemm_mttkrp(data, factors, block, 3) is not None

    @pytest.mark.parametrize(
        "shape,kept",
        [((12, 4, 4, 3), (0, 3)), ((12, 4, 4, 3), (0, 1, 3)), ((12, 4, 4, 3), (0, 2, 3)),
         ((9, 8, 7), (0, 2))],
    )
    def test_gemm_takes_a_removed_block_between_kept_modes(self, shape, kept):
        """A removed block between kept modes is taken, and the result
        equals the einsum contraction."""
        tensor, factors = problem(shape, 3, seed=31)
        data = as_ndarray(tensor)
        out = gemm_mttkrp(data, factors, kept, 3)
        letters = "abcd"[: len(shape)]
        removed = [k for k in range(len(shape)) if k not in kept]
        spec = (
            letters + "," + ",".join(letters[k] + "z" for k in removed)
            + "->" + "".join(letters[k] for k in kept) + "z"
        )
        expected = np.einsum(spec, data, *[factors[k] for k in removed])
        assert out.shape == expected.shape
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    def test_steady_sweep_peak_stays_below_tensor_bytes(self):
        """Regression: the chain's first partial of this shape is R / I_3 = 1.33x
        the tensor, and a steady sweep peaked at 1.98x the tensor's bytes."""
        shape, rank = (80, 10, 10, 6), 8
        tensor, factors = problem(shape, rank, seed=32)
        kernel = DimensionTreeKernel()
        als_sweep(kernel, tensor, factors)
        tracemalloc.start()
        try:
            als_sweep(kernel, tensor, factors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < as_ndarray(tensor).nbytes


class TestStaleNodeDrop:
    """Inside a sweep, under exact invalidation, ``DimensionTreeKernel``
    drops the cached nodes that mode ``m``'s update stales (every node whose
    key lacks ``m``) before mode ``m``'s read."""

    def test_steady_sweep_peak_holds_no_stale_node(self):
        """At 100³, R=16 a steady sweep peaked at 2.17 node sizes (100·100·16
        words) while the stale ``(1, 2)`` node stayed cached through mode 0's
        read beside the leaf's Khatri-Rao product; now it peaks near 1.14."""
        shape, rank = (100, 100, 100), 16
        tensor, factors = problem(shape, rank, seed=33)
        kernel = DimensionTreeKernel()
        tracemalloc.start()
        try:
            for sweep in (1, 2):
                kernel.begin_sweep(sweep)
                tracemalloc.reset_peak()
                als_sweep(kernel, tensor, factors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * shape[1] * shape[2] * rank * 8

    @pytest.mark.parametrize("shape", SHAPES)
    def test_drop_keeps_the_outputs_and_the_ledger(self, shape):
        """A kernel inside sweeps and one called outside any sweep, which
        keeps every node, serve the same bytes and charge the same ledger;
        the first only caches less."""
        tensor, factors = problem(shape, 3, seed=34)
        dropping, keeping = DimensionTreeKernel(), DimensionTreeKernel()
        for sweep in (1, 2, 3):
            dropping.begin_sweep(sweep)
            for mode in range(len(shape)):
                ours = dropping.mttkrp(tensor, factors, mode)
                assert ours.tobytes() == keeping.mttkrp(tensor, factors, mode).tobytes()
                assert all(mode in key for key in dropping.tree.capture_state()["cache"])
                factors[mode] = 0.5 * factors[mode]
        assert dropping.counters() == keeping.counters()
        assert dropping.tree.cached_words() < keeping.tree.cached_words()

    def test_residual_gate_keeps_its_nodes(self):
        """The residual gate may keep a node valid through an update, so
        nothing is dropped under it."""
        tensor, factors = problem((3, 4, 5), 3, seed=35)
        kernel = DimensionTreeKernel(invalidation="residual", residual_tol=1e9)
        kernel.begin_sweep(1)
        als_sweep(kernel, tensor, factors)
        assert sorted(kernel.tree.capture_state()["cache"]) == [(0,), (1,), (1, 2), (2,)]

    @pytest.mark.parametrize("stop_at", [1, 2, 3])
    def test_resume_is_bitwise(self, stop_at):
        """A checkpoint holds only nodes that contain the last mode, and a
        resume from it repeats the uninterrupted run and its ledger."""
        tensor = noisy_low_rank_tensor((6, 5, 4, 3), 3, noise_level=0.02, seed=36)
        kwargs = dict(n_iter_max=4, tol=0.0, seed=37)
        store = CheckpointStore()
        full_kernel = DimensionTreeKernel()
        full = cp_als(tensor, 3, kernel=full_kernel, checkpoint_store=store, **kwargs)
        checkpoint = store.at_sweep(stop_at)
        assert all(3 in key for key in checkpoint.kernel_state["tree"]["cache"])
        kernel = DimensionTreeKernel()
        resumed = cp_als(tensor, 3, kernel=kernel, resume_from=checkpoint, **kwargs)
        assert resumed.fits == full.fits
        for a, b in zip(resumed.model.factors, full.model.factors):
            assert a.tobytes() == b.tobytes()
        assert kernel.per_sweep_costs() == full_kernel.per_sweep_costs()[stop_at:]


#: ``(shape, rank, memory order)`` inputs the multi-sweep schedule declines,
#: each for one reason: four modes, two modes, and ``R`` above an extent.
DECLINED_CASES = [
    pytest.param((6, 5, 4, 3), 3, "C", id="4way"),
    pytest.param((12, 10), 3, "C", id="2way"),
    pytest.param((4, 5, 6), 5, "C", id="rank-above-extent"),
]


def run_als(kernel, shape, rank, sweeps, order="C", seed=60):
    tensor = in_order(noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=seed), order)
    return cp_als(tensor, rank, n_iter_max=sweeps, tol=0.0, seed=seed + 1, kernel=kernel)


class TestMultiSweepTree:
    """``kernel="msdt"``: one tensor read serves two updates on 3-way inputs."""

    @pytest.mark.parametrize("shape,rank", [((9, 8, 7), 3), ((30, 40, 50), 4)])
    @pytest.mark.parametrize("sweeps", range(1, 7))
    def test_ledger_equals_the_replay(self, shape, rank, sweeps):
        kernel = MultiSweepTreeKernel()
        run_als(kernel, shape, rank, sweeps)
        assert kernel.per_sweep_costs() == multisweep_sweep_costs(shape, rank, sweeps)

    def test_root_reads_alternate_after_the_first_sweep(self):
        kernel = MultiSweepTreeKernel()
        run_als(kernel, (9, 8, 7), 3, 5)
        assert [cost.root_reads for cost in kernel.per_sweep_costs()] == [2, 2, 1, 2, 1]
        assert kernel.per_sweep_costs()[0] == dimtree_sweep_cost((9, 8, 7), 3)

    def test_a_fortran_ordered_tensor_takes_the_schedule(self):
        """The layout does not decide: every read runs one mode at a time,
        and the ledger is the replay's, as on a C-ordered tensor."""
        kernel = MultiSweepTreeKernel()
        with tracing() as session:
            run_als(kernel, (9, 8, 7), 3, 5, order="F")
        assert kernel.per_sweep_costs() == multisweep_sweep_costs((9, 8, 7), 3, 5)
        assert session.metrics.counter("dimtree.root.gemm") == 0
        assert session.metrics.counter("dimtree.root.chain") == 8

    @pytest.mark.parametrize("shape,rank,order", DECLINED_CASES)
    def test_declined_inputs_run_the_halving_tree(self, shape, rank, order):
        """Ledger, fits and factors of ``"dimtree"``, bit for bit."""
        kernel = MultiSweepTreeKernel()
        ours = run_als(kernel, shape, rank, 4, order)
        theirs = run_als("dimtree", shape, rank, 4, order)
        assert kernel.per_sweep_costs() == [dimtree_sweep_cost(shape, rank)] * 4
        assert ours.fits == theirs.fits
        for a, b in zip(ours.model.factors, theirs.model.factors):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("shape,rank", [((6, 5, 4, 3), 3), ((12, 10), 3), ((4, 5, 6), 5)])
    def test_replay_of_a_declined_shape_is_the_halving_tree(self, shape, rank):
        assert multisweep_sweep_costs(shape, rank, 3) == [dimtree_sweep_cost(shape, rank)] * 3
        assert multisweep_sweep_costs(shape, rank, 0) == []

    def test_at_most_one_two_mode_node_is_cached(self):
        """After each update the cache holds the node the next update reads,
        or nothing: update 0 and every even update leave it empty."""
        shape, rank = (9, 8, 7), 3
        kernel = MultiSweepTreeKernel()
        held = []

        class Watch(SweepKernel):
            def begin_sweep(self, iteration):
                kernel.begin_sweep(iteration)

            def mttkrp(self, tensor, factors, mode):
                out = kernel.mttkrp(tensor, factors, mode)
                held.append(kernel.tree.cached_words())
                return out

        run_als(Watch(), shape, rank, 4)
        node_words = {update: shape[update % 3] * shape[(update + 1) % 3] * rank
                      for update in range(1, 12, 2)}
        assert held == [node_words.get(update, 0) for update in range(12)]

    def test_a_call_outside_a_sweep_runs_the_halving_tree(self):
        tensor, factors = problem((9, 8, 7), 3, seed=62)
        ours, theirs = MultiSweepTreeKernel(), DimensionTreeKernel()
        for mode in range(3):
            assert np.array_equal(
                ours.mttkrp(tensor, factors, mode), theirs.mttkrp(tensor, factors, mode)
            )
        assert ours.counters() == theirs.counters()

    def test_a_reused_instance_repeats_its_run(self):
        """A second run on the same tensor starts over at update 0, though
        the first run left the node of its next update cached."""
        tensor = noisy_low_rank_tensor((9, 8, 7), 3, noise_level=0.02, seed=63)
        kernel = MultiSweepTreeKernel()
        first = cp_als(tensor, 3, n_iter_max=4, tol=0.0, seed=64, kernel=kernel)
        assert kernel.tree.cached_words() > 0
        second = cp_als(tensor, 3, n_iter_max=4, tol=0.0, seed=64, kernel=kernel)
        assert first.fits == second.fits
        assert kernel.per_sweep_costs()[4:] == multisweep_sweep_costs((9, 8, 7), 3, 4)
