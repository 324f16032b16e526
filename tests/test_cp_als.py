"""Unit tests for the CP-ALS driver."""

import inspect
import tracemalloc

import numpy as np
import pytest

from repro.core.kernels import mttkrp
from repro.core.matmul_baseline import mttkrp_via_matmul
from repro.cp.als import cp_als
from repro.cp.initialization import initialize_factors
from repro.exceptions import ParameterError
from repro.observe import tracing
from repro.tensor.random import noisy_low_rank_tensor, random_low_rank_tensor, random_tensor

#: (keyword arguments, error-message pattern) of driver misuse on a
#: (6, 5, 4) tensor at rank 2.
BAD_DRIVER_ARGUMENTS = [
    ({"n_iter_max": -1}, "n_iter_max"),
    ({"n_iter_max": 0}, "n_iter_max"),
    ({"n_iter_max": 2.5}, "n_iter_max"),
    ({"tol": float("nan")}, "tol"),
    ({"tol": -1e-3}, "tol"),
    ({"threads": 0}, "threads"),
    ({"threads": 1.5}, "threads"),
    # One tile covers the tensor, so the blocked kernel never reads threads.
    ({"kernel": "blocked", "threads": 0}, "threads"),
    ({"init": [np.ones((7, 2)), np.ones((5, 2)), np.ones((4, 2))]}, "mode 0"),
    ({"init": [np.ones(6), np.ones((5, 2)), np.ones((4, 2))]}, "mode 0"),
    ({"init": [np.ones((6, 2)), np.ones((5, 2)), np.ones((4, 3))]}, "mode 2"),
]


class TestInitialization:
    def test_random_shapes(self):
        tensor = random_tensor((4, 5, 6), seed=0)
        factors = initialize_factors(tensor, 3, method="random", seed=1)
        assert [f.shape for f in factors] == [(4, 3), (5, 3), (6, 3)]

    def test_svd_is_deterministic(self):
        tensor = random_tensor((4, 5, 6), seed=0)
        a = initialize_factors(tensor, 2, method="svd")
        b = initialize_factors(tensor, 2, method="svd")
        for fa, fb in zip(a, b):
            assert np.allclose(fa, fb)

    def test_svd_handles_rank_above_dimension(self):
        tensor = random_tensor((3, 8, 8), seed=0)
        factors = initialize_factors(tensor, 5, method="svd", seed=2)
        assert factors[0].shape == (3, 5)

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            initialize_factors(random_tensor((3, 3), seed=0), 2, method="hosvd++")


class TestCPALSRecovery:
    def test_recovers_exact_low_rank_tensor(self):
        tensor = random_low_rank_tensor((10, 9, 8), 3, seed=0)
        result = cp_als(tensor, 3, n_iter_max=200, tol=1e-12, seed=1)
        assert result.final_fit > 0.999

    def test_fit_is_monotone_after_first_iterations(self):
        tensor = noisy_low_rank_tensor((10, 9, 8), 3, noise_level=0.05, seed=2)
        result = cp_als(tensor, 3, n_iter_max=40, tol=0.0, seed=3)
        fits = np.array(result.fits)
        assert np.all(np.diff(fits[1:]) > -1e-8)

    def test_two_way_tensor_matches_truncated_svd_quality(self):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((12, 10))
        result = cp_als(matrix, 3, n_iter_max=300, tol=1e-13, seed=5)
        u, s, vt = np.linalg.svd(matrix)
        best = np.linalg.norm((u[:, :3] * s[:3]) @ vt[:3] - matrix) / np.linalg.norm(matrix)
        assert result.final_fit >= (1 - best) - 5e-3

    def test_four_way_tensor(self):
        tensor = random_low_rank_tensor((5, 4, 6, 3), 2, seed=6)
        result = cp_als(tensor, 2, n_iter_max=300, tol=1e-12, seed=7)
        assert result.final_fit > 0.99

    def test_model_shape(self):
        tensor = random_tensor((5, 6, 7), seed=8)
        result = cp_als(tensor, 4, n_iter_max=5, seed=9)
        assert result.model.shape == (5, 6, 7)
        assert result.model.rank == 4

    def test_fit_consistent_with_dense_reconstruction(self):
        tensor = random_low_rank_tensor((6, 6, 6), 2, seed=10)
        result = cp_als(tensor, 2, n_iter_max=100, tol=1e-12, seed=11)
        direct_fit = result.model.fit(tensor)
        assert np.isclose(direct_fit, result.final_fit, atol=1e-6)


class TestCPALSOptions:
    def test_kernel_choices_agree(self):
        tensor = random_low_rank_tensor((6, 5, 4), 2, seed=12)
        a = cp_als(tensor, 2, n_iter_max=10, seed=13, kernel="einsum")
        b = cp_als(tensor, 2, n_iter_max=10, seed=13, kernel=mttkrp_via_matmul)
        assert np.allclose(a.fits, b.fits, atol=1e-10)

    def test_dimtree_kernel_matches_einsum_trajectory(self):
        tensor = noisy_low_rank_tensor((9, 8, 7), 3, noise_level=0.02, seed=30)
        a = cp_als(tensor, 3, n_iter_max=15, tol=0.0, seed=31, kernel="einsum")
        b = cp_als(tensor, 3, n_iter_max=15, tol=0.0, seed=31, kernel="dimtree")
        assert np.allclose(a.fits, b.fits, atol=1e-10)
        assert a.mttkrp_calls == b.mttkrp_calls

    def test_blocked_and_auto_kernels_match_einsum_trajectory(self):
        tensor = noisy_low_rank_tensor((9, 8, 7), 3, noise_level=0.02, seed=30)
        a = cp_als(tensor, 3, n_iter_max=15, tol=0.0, seed=31, kernel="einsum")
        for kernel in ("blocked", "auto"):
            b = cp_als(tensor, 3, n_iter_max=15, tol=0.0, seed=31, kernel=kernel)
            assert np.allclose(a.fits, b.fits, atol=1e-10), kernel

    @pytest.mark.parametrize("kernel", ["blocked", "auto"])
    def test_blocked_kernel_threads_do_not_change_the_trajectory(self, kernel):
        """Thread counts change scheduling, never fits — bitwise contract.

        ``auto`` runs the multi-sweep tree, which reads no thread count.
        """
        tensor = noisy_low_rank_tensor((10, 9, 8), 3, noise_level=0.02, seed=32)
        serial = cp_als(tensor, 3, n_iter_max=8, tol=0.0, seed=33, kernel=kernel, threads=1)
        threaded = cp_als(tensor, 3, n_iter_max=8, tol=0.0, seed=33, kernel=kernel, threads=3)
        assert np.array_equal(serial.fits, threaded.fits)
        for a, b in zip(serial.model.factors, threaded.model.factors):
            assert a.tobytes() == b.tobytes()

    def test_unknown_kernel_message_unified(self):
        with pytest.raises(ParameterError, match="unknown MTTKRP kernel 'gpu'; use one of"):
            cp_als(random_tensor((3, 3), seed=0), 2, kernel="gpu")

    def test_custom_kernel_callable(self):
        calls = []

        def counting_kernel(tensor, factors, mode):
            calls.append(mode)
            return mttkrp(tensor, factors, mode)

        tensor = random_tensor((4, 4, 4), seed=14)
        result = cp_als(tensor, 2, n_iter_max=3, tol=0.0, seed=15, kernel=counting_kernel)
        assert len(calls) == result.mttkrp_calls
        assert len(calls) == 3 * 3

    def test_unknown_kernel(self):
        with pytest.raises(ParameterError):
            cp_als(random_tensor((3, 3), seed=0), 2, kernel="gpu")

    def test_explicit_initial_factors(self):
        tensor = random_low_rank_tensor((5, 5, 5), 2, seed=16)
        init = initialize_factors(tensor, 2, method="svd")
        result = cp_als(tensor, 2, init=init, n_iter_max=50, tol=1e-12)
        assert result.final_fit > 0.99

    def test_explicit_init_wrong_length(self):
        tensor = random_tensor((4, 4, 4), seed=17)
        with pytest.raises(ParameterError):
            cp_als(tensor, 2, init=[np.zeros((4, 2))])

    @pytest.mark.parametrize("kwargs, match", BAD_DRIVER_ARGUMENTS)
    def test_bad_driver_arguments_rejected_before_any_work(self, kwargs, match):
        """Every bad value fails up front, even where the kernel ignores it."""
        calls = []

        def counting_kernel(tensor, factors, mode):
            calls.append(mode)
            return mttkrp(tensor, factors, mode)

        tensor = random_tensor((6, 5, 4), seed=46)
        with pytest.raises(ParameterError, match=match):
            cp_als(tensor, 2, **{"kernel": counting_kernel, **kwargs})
        assert calls == []

    def test_svd_init_string(self):
        tensor = random_low_rank_tensor((6, 5, 4), 2, seed=18)
        result = cp_als(tensor, 2, init="svd", n_iter_max=50, tol=1e-12)
        assert result.final_fit > 0.99

    def test_seed_reproducibility(self):
        tensor = random_tensor((5, 5, 5), seed=19)
        a = cp_als(tensor, 3, n_iter_max=8, seed=42)
        b = cp_als(tensor, 3, n_iter_max=8, seed=42)
        assert np.allclose(a.fits, b.fits)

    def test_convergence_flag(self):
        tensor = random_low_rank_tensor((6, 6, 6), 1, seed=20)
        converged = cp_als(tensor, 1, n_iter_max=100, tol=1e-9, seed=21)
        assert converged.converged
        not_converged = cp_als(tensor, 1, n_iter_max=1, tol=1e-15, seed=21)
        assert not not_converged.converged

    def test_rejects_one_way_tensor(self):
        with pytest.raises(ParameterError):
            cp_als(np.ones(5), 2)


#: Inputs of the default-kernel checks: 3-, 4- and 2-way C-ordered tensors,
#: whose tensor reads run as one GEMM, and a Fortran-ordered 3-way one,
#: whose reads take the one-mode-at-a-time chain.  ``3way`` and ``fortran``
#: take the multi-sweep schedule; the others run the halving tree.
DEFAULT_KERNEL_INPUTS = {
    "3way": noisy_low_rank_tensor((9, 8, 7), 3, noise_level=0.02, seed=50),
    "4way": noisy_low_rank_tensor((6, 5, 4, 3), 3, noise_level=0.02, seed=51),
    "2way": noisy_low_rank_tensor((12, 10), 3, noise_level=0.02, seed=52),
    "fortran": np.asfortranarray(
        noisy_low_rank_tensor((9, 8, 7), 3, noise_level=0.02, seed=53).data
    ),
}


def _assert_bitwise(ours, theirs):
    assert ours.fits == theirs.fits
    assert ours.mttkrp_calls == theirs.mttkrp_calls
    assert ours.model.weights.tobytes() == theirs.model.weights.tobytes()
    for a, b in zip(ours.model.factors, theirs.model.factors):
        assert a.tobytes() == b.tobytes()


class TestDefaultKernel:
    """``cp_als`` without ``kernel=`` runs the multi-sweep dimension tree."""

    def test_default_is_msdt(self):
        assert inspect.signature(cp_als).parameters["kernel"].default == "msdt"

    @pytest.mark.parametrize("name", sorted(DEFAULT_KERNEL_INPUTS))
    def test_default_against_dimtree(self, name):
        """Bitwise ``"dimtree"`` wherever the schedule declines, and on the
        first sweep of a 3-way input; after it, within 1e-12 relative."""
        tensor = DEFAULT_KERNEL_INPUTS[name]
        with tracing() as session:
            default = cp_als(tensor, 3, n_iter_max=6, tol=0.0, seed=54)
        named = cp_als(tensor, 3, n_iter_max=6, tol=0.0, seed=54, kernel="dimtree")
        root = "dimtree.root.chain" if name == "fortran" else "dimtree.root.gemm"
        assert session.metrics.counter(root) > 0
        if name in ("2way", "4way"):
            _assert_bitwise(default, named)
            return
        _assert_bitwise(
            cp_als(tensor, 3, n_iter_max=1, tol=0.0, seed=54),
            cp_als(tensor, 3, n_iter_max=1, tol=0.0, seed=54, kernel="dimtree"),
        )
        assert default.fits == pytest.approx(named.fits, rel=1e-12, abs=0)
        for a, b in zip(default.model.factors, named.model.factors):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("kernel", [{}, {"kernel": "auto"}], ids=["default", "auto"])
    def test_tensor_reads_per_sweep(self, kernel):
        """The default, and ``kernel="auto"`` with it, reads a 3-way tensor
        twice in sweeps 1 and 2, then alternately once and twice: the
        ``dimtree.root.gemm`` counter."""
        tensor = DEFAULT_KERNEL_INPUTS["3way"]
        reads = []
        for sweeps in range(1, 6):
            with tracing() as session:
                cp_als(tensor, 3, n_iter_max=sweeps, tol=0.0, seed=54, **kernel)
            reads.append(session.metrics.counter("dimtree.root.gemm"))
        assert np.diff([0] + reads).tolist() == [2, 2, 1, 2, 1]


#: The default-kernel inputs and one whose rank exceeds an extent, which the
#: multi-sweep schedule declines.
AUTO_KERNEL_INPUTS = {
    **DEFAULT_KERNEL_INPUTS,
    "rank-above-extent": noisy_low_rank_tensor((2, 9, 8), 3, noise_level=0.02, seed=57),
}


def _traced_run(tensor, **kernel):
    """A 5-sweep run; its result, each sweep's counted (flops, words) and tree counters."""
    with tracing() as session:
        result = cp_als(tensor, 3, n_iter_max=5, tol=0.0, seed=58, **kernel)
    sweeps = [(span.flops, span.words) for span in session.spans_named("sweep")]
    tree = {k: v for k, v in session.metrics.counters().items() if k.startswith("dimtree.")}
    return result, sweeps, tree


class TestAutoKernel:
    """``kernel="auto"`` is a second name of the default, bit for bit."""

    @pytest.mark.parametrize("name", sorted(AUTO_KERNEL_INPUTS))
    def test_auto_is_the_default(self, name):
        """Fits, factors, MTTKRP calls and the counted ledger of every sweep."""
        tensor = AUTO_KERNEL_INPUTS[name]
        ours, our_sweeps, our_tree = _traced_run(tensor, kernel="auto")
        theirs, their_sweeps, their_tree = _traced_run(tensor)
        _assert_bitwise(ours, theirs)
        assert len(our_sweeps) == 5 and our_sweeps == their_sweeps
        assert our_tree and our_tree == their_tree


def test_norm_of_a_fortran_ordered_tensor_copies_nothing():
    """``||X||`` reads the tensor in memory order: a Fortran-ordered input is
    not copied before sweep 1, so a sweep whose kernel allocates nothing
    peaks below the tensor's bytes."""
    tensor = np.asfortranarray(random_tensor((40, 30, 20), seed=55).data)

    def stub(data, factors, mode):
        return np.ones((data.shape[mode], 2))

    tracemalloc.start()
    try:
        cp_als(tensor, 2, n_iter_max=1, tol=0.0, seed=56, kernel=stub)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < tensor.nbytes
