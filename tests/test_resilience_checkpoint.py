"""Checkpoint/restore of full ALS state: bitwise-identical resume (ISSUE 10).

The exactness claim: a run killed after sweep ``k`` and resumed from its
checkpoint replays sweeps ``k+1..`` **bitwise identical** to the
uninterrupted run — fits, factors, weights, MTTKRP call counts, and (for the
distributed kernels) the communication ledger splits additively across the
kill point.  Swept across every kernel of BOTH registries, every resume
sweep, and (via hypothesis) random seeds.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cp.als import KERNEL_NAMES, cp_als
from repro.cp.parallel_als import PARALLEL_KERNEL_NAMES, parallel_cp_als
from repro.exceptions import ParameterError
from repro.observe import tracing
from repro.resilience import CheckpointState, CheckpointStore
from repro.tensor.random import noisy_low_rank_tensor

SHAPE = (6, 5, 4)
RANK = 3
N_PROCS = 4
N_SWEEPS = 4


def _tensor(seed):
    return np.random.default_rng(seed).standard_normal(SHAPE)


def _dummy_state(iteration=1, shape=SHAPE, rank=RANK):
    rng = np.random.default_rng(iteration)
    return CheckpointState(
        iteration=iteration,
        factors=[rng.standard_normal((n, rank)) for n in shape],
        weights=np.ones(rank),
        fits=[0.1 * iteration],
        previous_fit=0.1 * iteration,
        mttkrp_calls=len(shape) * iteration,
        kernel_state=None,
        shape=tuple(shape),
        rank=rank,
    )


class TestCheckpointState:
    def test_copy_does_not_alias(self):
        state = _dummy_state()
        clone = state.copy()
        clone.factors[0][...] = 0.0
        clone.weights[...] = 0.0
        clone.fits.append(9.9)
        assert not np.array_equal(state.factors[0], clone.factors[0])
        assert state.weights.sum() == RANK
        assert len(state.fits) == 1

    def test_check_problem(self):
        state = _dummy_state()
        state.check_problem(SHAPE, RANK)
        with pytest.raises(ParameterError, match="cannot resume"):
            state.check_problem((6, 5, 5), RANK)
        with pytest.raises(ParameterError, match="cannot resume"):
            state.check_problem(SHAPE, RANK + 1)


class TestCheckpointStore:
    def test_cadence_validation(self):
        with pytest.raises(ParameterError, match="cadence"):
            CheckpointStore(every=0)
        with pytest.raises(ParameterError, match="keep_last"):
            CheckpointStore(keep_last=0)

    def test_wants_follows_cadence(self):
        store = CheckpointStore(every=2)
        assert [store.wants(i) for i in range(1, 6)] == [
            False,
            True,
            False,
            True,
            False,
        ]

    def test_save_deep_copies(self):
        store = CheckpointStore()
        state = _dummy_state()
        store.save(state)
        state.factors[0][...] = np.nan
        assert np.isfinite(store.latest().factors[0]).all()

    def test_keep_last_is_a_ring_buffer(self):
        store = CheckpointStore(keep_last=2)
        for i in range(1, 6):
            store.save(_dummy_state(iteration=i))
        assert len(store) == 2
        assert [s.iteration for s in store.states] == [4, 5]
        assert store.latest().iteration == 5

    def test_at_sweep(self):
        store = CheckpointStore()
        for i in (1, 2, 3):
            store.save(_dummy_state(iteration=i))
        assert store.at_sweep(2).iteration == 2
        with pytest.raises(ParameterError, match="no checkpoint"):
            store.at_sweep(7)

    def test_latest_empty_is_none(self):
        assert CheckpointStore().latest() is None


def _assert_sequential_resume_matches(kernel, seed, stop_at):
    tensor = _tensor(seed)
    kwargs = dict(n_iter_max=N_SWEEPS, tol=0.0, seed=seed, kernel=kernel)
    store = CheckpointStore()
    full = cp_als(tensor, RANK, checkpoint_store=store, **kwargs)
    assert len(store) == N_SWEEPS
    resumed = cp_als(tensor, RANK, resume_from=store.at_sweep(stop_at), **kwargs)
    assert resumed.fits == full.fits
    assert resumed.mttkrp_calls == full.mttkrp_calls
    assert np.array_equal(resumed.model.weights, full.model.weights)
    for a, b in zip(resumed.model.factors, full.model.factors):
        assert np.array_equal(a, b)


def _assert_parallel_resume_matches(kernel, seed, stop_at, algorithm="stationary"):
    tensor = _tensor(seed)
    kwargs = dict(tol=0.0, seed=seed, kernel=kernel, algorithm=algorithm)
    full = parallel_cp_als(tensor, RANK, N_PROCS, n_iter_max=N_SWEEPS, **kwargs)
    store = CheckpointStore()
    partial = parallel_cp_als(
        tensor, RANK, N_PROCS, n_iter_max=stop_at, checkpoint_store=store, **kwargs
    )
    resumed = parallel_cp_als(
        tensor, RANK, N_PROCS, n_iter_max=N_SWEEPS, resume_from=store.latest(), **kwargs
    )
    assert resumed.als.fits == full.als.fits
    assert np.array_equal(resumed.als.model.weights, full.als.model.weights)
    for a, b in zip(resumed.als.model.factors, full.als.model.factors):
        assert np.array_equal(a, b)
    # Ledger additivity across the kill point: the partial run's words plus
    # the resumed run's words equal the uninterrupted run's, rank for rank.
    assert np.array_equal(
        partial.machine.words_sent + resumed.machine.words_sent,
        full.machine.words_sent,
    )


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("stop_at", [1, 3])
def test_sequential_resume_bitwise_identical(kernel, stop_at):
    _assert_sequential_resume_matches(kernel, seed=0, stop_at=stop_at)


@pytest.mark.parametrize(
    "kernel, algorithm",
    [pytest.param(kernel, "stationary", id=kernel) for kernel in PARALLEL_KERNEL_NAMES]
    + [pytest.param("exact", "general", id="exact-general")],
)
@pytest.mark.parametrize("stop_at", [1, 2])
def test_parallel_resume_bitwise_identical(kernel, algorithm, stop_at):
    _assert_parallel_resume_matches(kernel, seed=0, stop_at=stop_at, algorithm=algorithm)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    stop_at=st.integers(min_value=1, max_value=N_SWEEPS - 1),
    kernel=st.sampled_from(("dimtree", "sampled", "sampled-dimtree")),
)
def test_resume_bitwise_identical_random_seeds(seed, stop_at, kernel):
    """Random (seed, kill sweep) points on the stateful/sampled kernels."""
    _assert_sequential_resume_matches(kernel, seed=seed, stop_at=stop_at)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    stop_at=st.integers(min_value=1, max_value=N_SWEEPS - 1),
    kernel=st.sampled_from(("dimtree", "sampled-dimtree")),
)
def test_parallel_resume_bitwise_identical_random_seeds(seed, stop_at, kernel):
    _assert_parallel_resume_matches(kernel, seed=seed, stop_at=stop_at)


@pytest.mark.parametrize("kernel", ("dimtree", "sampled-dimtree"))
@pytest.mark.parametrize("stop_at", [1, 3])
def test_residual_gate_resume_bitwise_identical(kernel, stop_at):
    """Regression: the residual gate serves cached partials across sweeps, so
    a restored partial must keep its memory layout for the einsums that
    consume it to sum in the uninterrupted run's order."""
    tensor = noisy_low_rank_tensor((5, 6, 40, 30), RANK, noise_level=0.1, seed=1)
    kwargs = dict(
        n_iter_max=N_SWEEPS, tol=0.0, seed=1, kernel=kernel,
        invalidation="residual", invalidation_tol=1e-2,
    )
    store = CheckpointStore()
    full = cp_als(tensor, RANK, checkpoint_store=store, **kwargs)
    resumed = cp_als(tensor, RANK, resume_from=store.at_sweep(stop_at), **kwargs)
    assert resumed.fits == full.fits
    for a, b in zip(resumed.model.factors, full.model.factors):
        assert np.array_equal(a, b)


def test_checkpoint_counters_traced():
    tensor = _tensor(1)
    store = CheckpointStore()
    with tracing() as session:
        cp_als(
            tensor,
            RANK,
            n_iter_max=3,
            tol=0.0,
            seed=1,
            kernel="dimtree",
            checkpoint_store=store,
        )
    assert session.metrics.counters().get("checkpoint.saved") == 3
    with tracing() as session:
        cp_als(
            tensor,
            RANK,
            n_iter_max=3,
            tol=0.0,
            seed=1,
            kernel="dimtree",
            resume_from=store.at_sweep(2),
        )
    counters = session.metrics.counters()
    assert counters.get("checkpoint.restored") == 1
    assert counters.get("checkpoint.saved") is None


def test_resume_rejects_wrong_problem():
    tensor = _tensor(2)
    store = CheckpointStore()
    cp_als(tensor, RANK, n_iter_max=2, tol=0.0, seed=2, checkpoint_store=store)
    other = np.random.default_rng(3).standard_normal((5, 4, 3))
    with pytest.raises(ParameterError, match="cannot resume"):
        cp_als(other, RANK, n_iter_max=2, tol=0.0, seed=2, resume_from=store.latest())


def test_resume_past_the_horizon_returns_checkpoint_state():
    """Resuming with n_iter_max at the checkpoint sweep runs zero new sweeps."""
    tensor = _tensor(4)
    store = CheckpointStore()
    full = cp_als(
        tensor, RANK, n_iter_max=3, tol=0.0, seed=4, kernel="dimtree",
        checkpoint_store=store,
    )
    resumed = cp_als(
        tensor, RANK, n_iter_max=3, tol=0.0, seed=4, kernel="dimtree",
        resume_from=store.at_sweep(3),
    )
    assert resumed.fits == full.fits
    assert resumed.n_iterations == full.n_iterations
