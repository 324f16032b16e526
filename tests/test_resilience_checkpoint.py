"""Checkpoint/restore of full ALS state: bitwise-identical resume (ISSUE 10).

The exactness claim: a run killed after sweep ``k`` and resumed from its
checkpoint replays sweeps ``k+1..`` **bitwise identical** to the
uninterrupted run — fits, factors, weights, MTTKRP call counts, and (for the
distributed kernels) the communication ledger splits additively across the
kill point.  Swept across every kernel of BOTH registries, every resume
sweep, and (via hypothesis) random seeds.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dimtree import DimensionTreeKernel, MultiSweepTreeKernel
from repro.core.matmul_baseline import mttkrp_via_matmul
from repro.core.sampled_dimtree import SampledDimtreeKernel
from repro.cp.als import KERNEL_NAMES, cp_als
from repro.cp.parallel_als import PARALLEL_KERNEL_NAMES, parallel_cp_als
from repro.exceptions import ParameterError
from repro.observe import tracing
from repro.resilience import CheckpointState, CheckpointStore
from repro.tensor.random import noisy_low_rank_tensor, random_factors

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

    @pytest.mark.parametrize(
        "name, value",
        [("every", 2.7), ("every", True), ("every", "3"), ("keep_last", 2.5), ("keep_last", True)],
    )
    def test_non_integer_arguments_rejected(self, name, value):
        """A cadence or ring size must be an integer: none is truncated or
        read as a number."""
        with pytest.raises(ParameterError, match=name):
            CheckpointStore(**{name: value})

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


def _assert_sequential_resume_matches(
    kernel, seed, stop_at, tensor=None, rank=RANK, n_sweeps=N_SWEEPS, **options
):
    tensor = _tensor(seed) if tensor is None else tensor
    kwargs = dict(n_iter_max=n_sweeps, tol=0.0, seed=seed, kernel=kernel, **options)
    store = CheckpointStore()
    full = cp_als(tensor, rank, checkpoint_store=store, **kwargs)
    assert len(store) == n_sweeps
    resumed = cp_als(tensor, rank, resume_from=store.at_sweep(stop_at), **kwargs)
    assert resumed.fits == full.fits
    assert resumed.mttkrp_calls == full.mttkrp_calls
    assert np.array_equal(resumed.model.weights, full.model.weights)
    for a, b in zip(resumed.model.factors, full.model.factors):
        assert np.array_equal(a, b)


def _assert_parallel_resume_matches(
    kernel, seed, stop_at, tensor=None, rank=RANK, n_sweeps=N_SWEEPS, **options
):
    tensor = _tensor(seed) if tensor is None else tensor
    kwargs = dict(tol=0.0, seed=seed, kernel=kernel, **options)
    full = parallel_cp_als(tensor, rank, N_PROCS, n_iter_max=n_sweeps, **kwargs)
    store = CheckpointStore()
    partial = parallel_cp_als(
        tensor, rank, N_PROCS, n_iter_max=stop_at, checkpoint_store=store, **kwargs
    )
    resumed = parallel_cp_als(
        tensor, rank, N_PROCS, n_iter_max=n_sweeps, resume_from=store.latest(), **kwargs
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


@pytest.mark.parametrize("kernel", ["dimtree", "sampled-dimtree"])
@pytest.mark.parametrize("stop_at", [1, 3])
def test_four_way_resume_bitwise_identical(kernel, stop_at):
    """On this 4-way tensor both root children run as one GEMM, and the
    checkpoint holds the trailing one as a transposed (non-C-contiguous)
    GEMM product: the copy keeps its layout, and the resume is bitwise."""
    tensor = noisy_low_rank_tensor((5, 6, 40, 30), RANK, noise_level=0.1, seed=1)
    store = CheckpointStore()
    cp_als(tensor, RANK, n_iter_max=stop_at, tol=0.0, seed=1, kernel=kernel,
           checkpoint_store=store)
    node = store.latest().kernel_state["tree"]["cache"][(2, 3)][0]
    assert not node.flags["C_CONTIGUOUS"]
    _assert_sequential_resume_matches(kernel, seed=1, stop_at=stop_at, tensor=tensor)


@pytest.mark.parametrize("stop_at", [1, 3])
def test_callable_kernel_resume_bitwise_identical(stop_at):
    """A plain per-call kernel (the matmul baseline) has no state to
    checkpoint, and resumes the uninterrupted run bitwise."""
    _assert_sequential_resume_matches(mttkrp_via_matmul, seed=0, stop_at=stop_at)


@pytest.mark.parametrize("kernel", PARALLEL_KERNEL_NAMES)
@pytest.mark.parametrize("stop_at", [1, 2])
def test_parallel_resume_bitwise_identical(kernel, stop_at):
    _assert_parallel_resume_matches(kernel, seed=0, stop_at=stop_at)


def _per_call_sampled_kernel():
    return SampledDimtreeKernel(64, distribution="product-leverage", cache=False, seed=5)


@pytest.mark.parametrize("stop_at", [1, 3])
def test_per_call_sampled_kernel_resume_bitwise_identical(stop_at):
    """A per-call sampled kernel instance checkpoints its draw stream, so a
    fresh instance resumes the uninterrupted run."""
    tensor = _tensor(0)
    kwargs = dict(n_iter_max=N_SWEEPS, tol=0.0, seed=0)
    store = CheckpointStore()
    full = cp_als(
        tensor, RANK, kernel=_per_call_sampled_kernel(), checkpoint_store=store, **kwargs
    )
    resumed = cp_als(
        tensor, RANK, kernel=_per_call_sampled_kernel(),
        resume_from=store.at_sweep(stop_at), **kwargs,
    )
    assert resumed.fits == full.fits
    for a, b in zip(resumed.model.factors, full.model.factors):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("stop_at", range(1, 6))
def test_msdt_resume_bitwise_after_every_sweep(stop_at):
    """Under ``"msdt"`` a checkpoint after an even sweep holds the two-mode
    node the next update is served from, and one after an odd sweep holds
    none: a kill after each of sweeps 1-5 resumes the uninterrupted run
    bitwise, and its ledger goes on where it stopped."""
    tensor = _tensor(2)
    kwargs = dict(n_iter_max=6, tol=0.0, seed=2)
    store = CheckpointStore()
    full_kernel = MultiSweepTreeKernel()
    full = cp_als(tensor, RANK, kernel=full_kernel, checkpoint_store=store, **kwargs)
    checkpoint = store.at_sweep(stop_at)
    assert bool(checkpoint.kernel_state["tree"]["cache"]) == (stop_at % 2 == 0)
    kernel = MultiSweepTreeKernel()
    resumed = cp_als(tensor, RANK, kernel=kernel, resume_from=checkpoint, **kwargs)
    assert resumed.fits == full.fits
    assert np.array_equal(resumed.model.weights, full.model.weights)
    for a, b in zip(resumed.model.factors, full.model.factors):
        assert np.array_equal(a, b)
    assert kernel.counters() == full_kernel.counters()
    assert kernel.per_sweep_costs() == full_kernel.per_sweep_costs()[stop_at:]


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


# -- one deep copy per checkpoint, and only the writer resumes it -------------

#: Sweeps of the runs on the value-reproducing input.
UNIT_SWEEPS = 3


def _unit_problem():
    """``X = e1 o e1 o e1`` at 4x4x4 and unit-vector factors at R = 1.

    Every factor update reproduces its old value bitwise in a new array, so
    a cache that matched factors by value would take a replaced factor for
    the one it was built from.
    """
    tensor = np.zeros((4, 4, 4))
    tensor[0, 0, 0] = 1.0
    return tensor, [np.eye(4, 1) for _ in range(3)]


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("stop_at", [1, 2])
def test_value_reproducing_resume_bitwise_identical(kernel, stop_at):
    tensor, init = _unit_problem()
    _assert_sequential_resume_matches(
        kernel, 0, stop_at, tensor=tensor, rank=1, n_sweeps=UNIT_SWEEPS, init=init
    )


@pytest.mark.parametrize(
    "make_kernel",
    [
        DimensionTreeKernel,
        MultiSweepTreeKernel,
        lambda: SampledDimtreeKernel(seed=5),
        lambda: SampledDimtreeKernel(cache=False, seed=5),
    ],
    ids=["dimtree", "msdt", "sampled-dimtree", "sampled-dimtree-uncached"],
)
@pytest.mark.parametrize("stop_at", [1, 2])
def test_value_reproducing_resume_continues_the_sweep_costs(make_kernel, stop_at):
    tensor, init = _unit_problem()
    kwargs = dict(init=init, n_iter_max=UNIT_SWEEPS, tol=0.0, seed=0)
    store = CheckpointStore()
    full_kernel = make_kernel()
    full = cp_als(tensor, 1, kernel=full_kernel, checkpoint_store=store, **kwargs)
    kernel = make_kernel()
    resumed = cp_als(tensor, 1, kernel=kernel, resume_from=store.at_sweep(stop_at), **kwargs)
    assert resumed.fits == full.fits
    assert kernel.per_sweep_costs() == full_kernel.per_sweep_costs()[stop_at:]


@pytest.mark.parametrize("kernel", PARALLEL_KERNEL_NAMES)
@pytest.mark.parametrize("stop_at", [1, 2])
def test_value_reproducing_parallel_resume_splits_the_ledger(kernel, stop_at):
    """The default kernel gathers lazily: after sweep 1 its gather cache
    still holds the factor that mode 2's update replaced by an equal one, so
    the resumed run must gather it again, as the uninterrupted run does."""
    tensor, init = _unit_problem()
    _assert_parallel_resume_matches(
        kernel, 0, stop_at, tensor=tensor, rank=1, n_sweeps=UNIT_SWEEPS, init=init
    )


def test_resumed_node_misses_on_an_equal_factor_it_was_not_built_from():
    """A factor a cached node was built from, which the driver has replaced
    by an equal array, stays its own object through the checkpoint's copy,
    so the node goes stale after a resume, as in the uninterrupted run."""
    tensor = _tensor(0)
    factors = [np.random.default_rng(k).standard_normal((n, RANK)) for k, n in enumerate(SHAPE)]
    kernel = DimensionTreeKernel()
    kernel.mttkrp(tensor, factors, 1)  # caches node (1, 2), built from factor 0
    replaced = [f.copy() for f in factors]
    checkpoint = CheckpointState(
        iteration=1,
        factors=replaced,
        weights=np.ones(RANK),
        fits=[0.0],
        previous_fit=0.0,
        mttkrp_calls=1,
        kernel_state=kernel.capture_state(),
        shape=SHAPE,
        rank=RANK,
    ).copy()
    resumed = DimensionTreeKernel()
    resumed.restore_state(checkpoint.kernel_state)
    for run, run_factors in ((resumed, checkpoint.factors), (kernel, replaced)):
        with tracing() as session:
            run.mttkrp(tensor, run_factors, 2)
        assert session.metrics.counter("dimtree.partial.stale") == 1
        assert session.metrics.counter("dimtree.partial.hit") == 0
    assert resumed.counters() == kernel.counters()


def test_one_save_copies_the_kernel_state_once():
    """A save deep-copies the captured state once: its peak stays near the
    bytes the store keeps, with no second copy of the cached partials."""
    rank = 8
    tensor = noisy_low_rank_tensor((60, 50, 40), rank, seed=1)
    factors = random_factors(tensor.shape, rank, seed=2)
    kernel = DimensionTreeKernel()
    for mode in range(3):  # one sweep's reads, so the nodes hold these factors
        kernel.mttkrp(tensor, factors, mode)
    store = CheckpointStore()
    tracemalloc.start()
    try:
        store.save(
            CheckpointState(
                iteration=1,
                factors=factors,
                weights=np.ones(rank),
                fits=[0.0],
                previous_fit=0.0,
                mttkrp_calls=3,
                kernel_state=kernel.capture_state(),
                shape=tensor.shape,
                rank=rank,
            )
        )
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kernel.tree.cached_words() * 8 < kept
    assert peak < 1.5 * kept


def _held_arrays(obj, seen):
    """Every array reachable from ``obj`` through containers and attributes."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _held_arrays(value, seen)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _held_arrays(value, seen)
    elif hasattr(obj, "__dict__"):
        yield from _held_arrays(vars(obj), seen)


@pytest.mark.parametrize(
    "driver, kernel",
    [("cp_als", name) for name in KERNEL_NAMES]
    + [("parallel_cp_als", name) for name in PARALLEL_KERNEL_NAMES],
)
def test_checkpoint_never_reaches_the_tensor(driver, kernel):
    """The one deep copy takes factors, partials and samplers, never the
    tensor or a rank's block of it."""
    rank = 4
    tensor = noisy_low_rank_tensor((30, 40, 50), rank, seed=1)
    store = CheckpointStore()
    kwargs = dict(n_iter_max=2, tol=0.0, seed=1, kernel=kernel, checkpoint_store=store)
    if driver == "cp_als":
        cp_als(tensor, rank, **kwargs)
    else:
        parallel_cp_als(tensor, rank, N_PROCS, **kwargs)
    block = tensor.size // N_PROCS
    seen = set()
    largest = max(array.size for state in store.states for array in _held_arrays(state, seen))
    assert largest < block


@pytest.mark.parametrize(
    "kernel, reader",
    [
        ("sampled-dimtree", "SampledDimtreeKernel"),
        ("sampled", "SampledDimtreeKernel"),
        ("msdt", "MultiSweepTreeKernel"),
        ("einsum", "PerCallKernel"),
    ],
)
def test_resume_under_another_kernel_is_refused(kernel, reader):
    """A ``"dimtree"`` checkpoint resumes only under ``"dimtree"``: a stateful
    kernel names both classes, a stateless one refuses any state."""
    tensor = noisy_low_rank_tensor((12, 10, 8), RANK, seed=1)
    kwargs = dict(n_iter_max=3, tol=0.0, seed=0)
    store = CheckpointStore()
    cp_als(tensor, RANK, kernel="dimtree", checkpoint_store=store, **kwargs)
    with pytest.raises(ParameterError) as refused:
        cp_als(tensor, RANK, kernel=kernel, resume_from=store.at_sweep(1), **kwargs)
    assert "written by DimensionTreeKernel" in str(refused.value)
    assert reader in str(refused.value)


@pytest.mark.parametrize(
    "driver, writer, reader",
    [
        ("cp_als", "sampled", "sampled-tree"),
        ("cp_als", "sampled-tree", "sampled"),
        ("cp_als", "sampled-dimtree", "sampled-tree"),
        ("parallel_cp_als", "sampled", "sampled-tree"),
        ("parallel_cp_als", "sampled-tree", "sampled"),
    ],
)
def test_resume_under_another_sampled_name_is_refused(driver, writer, reader):
    """Sampled names that build one class still tell their states apart:
    the state names the distribution (and, sequentially, the cache flag)."""
    tensor = noisy_low_rank_tensor((12, 10, 8), RANK, seed=1)
    procs = () if driver == "cp_als" else (N_PROCS,)
    run = cp_als if driver == "cp_als" else parallel_cp_als
    kwargs = dict(n_iter_max=2, tol=0.0, seed=0)
    store = CheckpointStore()
    run(tensor, RANK, *procs, kernel=writer, checkpoint_store=store, **kwargs)
    with pytest.raises(ParameterError, match="cannot resume the kernel state written by"):
        run(tensor, RANK, *procs, kernel=reader, resume_from=store.at_sweep(1), **kwargs)


@pytest.mark.parametrize("n_procs, grid", [(2, (2, 1, 1)), (8, (2, 2, 2))])
def test_parallel_resume_on_another_grid_is_refused(n_procs, grid):
    tensor = noisy_low_rank_tensor((12, 10, 8), RANK, seed=1)
    kwargs = dict(n_iter_max=3, tol=0.0, seed=0)
    store = CheckpointStore()
    parallel_cp_als(tensor, RANK, N_PROCS, checkpoint_store=store, **kwargs)
    message = (
        "written by DistributedDimtreeKernel on grid (2, 2, 1) "
        f"under DistributedDimtreeKernel on grid {grid}"
    )
    with pytest.raises(ParameterError, match=re.escape(message)):
        parallel_cp_als(tensor, RANK, n_procs, resume_from=store.at_sweep(1), **kwargs)
