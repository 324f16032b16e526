"""Fault-recovery policies and the injected-fault exactness claims (ISSUE 10).

Three recovery surfaces of the drivers:

* ``on_fault`` policies against a *poisoned kernel cache* (silent corruption
  of a dimtree partial): ``"raise"`` surfaces a
  :class:`~repro.exceptions.FaultError`, ``"retry"`` clears the kernel's
  caches (``invalidate_caches``) and recomputes exactly,
  ``"degrade"`` falls back to the exact einsum kernel;
* *injected collective faults* under ``on_fault="retry"``: fits bitwise
  equal to the fault-free run, ledger reconciled exactly by
  :func:`repro.observe.retry_ledger_drift`;
* the solve-escalation and input-validation satellites.
"""

import numpy as np
import pytest

from repro.core.dimtree import DimensionTreeKernel, MultiSweepTreeKernel
from repro.core.kernels import mttkrp
from repro.core.sweep_kernel import SweepKernel
from repro.cp.als import cp_als
from repro.cp.parallel_als import parallel_cp_als
from repro.exceptions import FaultError, ParameterError
from repro.observe import tracing
from repro.observe.drift import retry_ledger_drift
from repro.parallel.machine import SimulatedMachine
from repro.resilience import (
    FaultSchedule,
    FaultyMachine,
    poison_kernel_cache,
)

SHAPE = (6, 5, 4)
RANK = 3
N_PROCS = 4


def _tensor(seed=0):
    return np.random.default_rng(seed).standard_normal(SHAPE)


class PoisoningKernel(SweepKernel):
    """Tree kernel whose cache is silently corrupted mid-sweep.

    Poisons every cached partial right after the target sweep's
    ``poison_call``-th MTTKRP.  By default that is the SECOND call of a
    ``"dimtree"`` kernel: for the 3-way split ``((0,), (1, 2))`` the
    ``(1, 2)`` partial is computed by mode 1's call and *served* to mode
    2's, so the corruption reaches a driver-visible output instead of being
    recomputed over.
    """

    def __init__(self, poison_sweep=2, inner=None, poison_call=2):
        self.inner = DimensionTreeKernel() if inner is None else inner
        self.poison_sweep = int(poison_sweep)
        self.poison_call = int(poison_call)
        self.poisoned = False
        self._sweep = 0
        self._calls_in_sweep = 0

    def begin_sweep(self, iteration):
        self._sweep = int(iteration)
        self._calls_in_sweep = 0
        self.inner.begin_sweep(iteration)

    def mttkrp(self, tensor, factors, mode):
        out = self.inner.mttkrp(tensor, factors, mode)
        self._calls_in_sweep += 1
        if (
            not self.poisoned
            and self._sweep == self.poison_sweep
            and self._calls_in_sweep == self.poison_call
        ):
            self.poisoned = poison_kernel_cache(self.inner)
        return out

    def capture_state(self):
        return self.inner.capture_state()

    def restore_state(self, state):
        self.inner.restore_state(state)

    def invalidate_caches(self):
        return self.inner.invalidate_caches()


class TestOnFaultPolicies:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ParameterError, match="on_fault"):
            cp_als(_tensor(), RANK, n_iter_max=2, seed=0, on_fault="ignore")

    def test_raise_surfaces_fault_error(self):
        kernel = PoisoningKernel()
        with pytest.raises(FaultError, match="non-finite"):
            cp_als(
                _tensor(), RANK, n_iter_max=4, tol=0.0, seed=0, kernel=kernel,
                on_fault="raise",
            )
        assert kernel.poisoned

    @pytest.mark.parametrize("policy", ["retry", "degrade"])
    def test_recovery_matches_clean_run(self, policy):
        tensor = _tensor()
        clean = cp_als(
            tensor, RANK, n_iter_max=4, tol=0.0, seed=0, kernel="dimtree"
        )
        kernel = PoisoningKernel()
        with tracing() as session:
            recovered = cp_als(
                tensor, RANK, n_iter_max=4, tol=0.0, seed=0, kernel=kernel,
                on_fault=policy,
            )
        assert kernel.poisoned
        if policy == "retry":
            # The corruption was confined to the cache; the invalidate +
            # recompute retraces the tree contraction exactly, so the whole
            # fit history matches the clean run bitwise.
            assert recovered.fits == clean.fits
            for a, b in zip(recovered.model.factors, clean.model.factors):
                assert np.array_equal(a, b)
        else:
            # The einsum fallback contracts in a different association order
            # than the tree, so the recovered run agrees to rounding only.
            assert recovered.fits == pytest.approx(clean.fits, rel=1e-10)
        counters = session.metrics.counters()
        assert counters["fault.detected"] >= 1
        assert counters["recovery.attempt"] >= 1
        if policy == "retry":
            assert counters["recovery.recovered"] >= 1
            assert counters["recovery.invalidate"] >= 1
        else:
            assert counters["recovery.degraded"] >= 1
        spans = session.spans_named("recovery")
        assert spans and spans[0].attrs["policy"] == policy

    def test_retry_rebuilds_the_poisoned_multisweep_node(self):
        """Sweep 2's first update builds the two-mode node ``(0, 1)`` and
        its second is served from it: poisoned between the two, the node is
        rebuilt by position on the retry, and the recovered run is bitwise
        the clean one."""
        tensor = _tensor()
        clean = cp_als(tensor, RANK, n_iter_max=4, tol=0.0, seed=0, kernel="msdt")
        kernel = PoisoningKernel(inner=MultiSweepTreeKernel(), poison_call=1)
        with tracing() as session:
            recovered = cp_als(
                tensor, RANK, n_iter_max=4, tol=0.0, seed=0, kernel=kernel,
                on_fault="retry",
            )
        assert kernel.poisoned
        assert session.metrics.counter("recovery.recovered") == 1
        assert recovered.fits == clean.fits
        for a, b in zip(recovered.model.factors, clean.model.factors):
            assert np.array_equal(a, b)

    def test_retry_on_cacheless_kernel_degrades(self):
        """A per-call kernel has no cache to invalidate; retry falls through."""
        poisoned_once = {"done": False}

        def flaky(tensor, factors, mode):
            out = mttkrp(tensor, factors, mode)
            if not poisoned_once["done"] and mode == 1:
                poisoned_once["done"] = True
                return np.full_like(out, np.nan)
            return out

        tensor = _tensor(1)
        clean = cp_als(tensor, RANK, n_iter_max=3, tol=0.0, seed=1, kernel="einsum")
        with tracing() as session:
            recovered = cp_als(
                tensor, RANK, n_iter_max=3, tol=0.0, seed=1, kernel=flaky,
                on_fault="retry",
            )
        assert recovered.fits == clean.fits
        assert session.metrics.counters()["recovery.degraded"] == 1

    def test_unrecoverable_corruption_raises_even_under_retry(self):
        """When the raw tensor itself is corrupted, no fallback can help."""
        from repro.core.sweep_kernel import as_sweep_kernel
        from repro.cp.als import _recover_mttkrp

        data = _tensor(2)
        data[0, 0, 0] = np.nan
        factors = [np.ones((n, RANK)) for n in SHAPE]
        kernel = as_sweep_kernel(
            lambda t, f, m: np.full((t.shape[m], RANK), np.nan)
        )
        with pytest.raises(FaultError, match="fallback"):
            _recover_mttkrp(kernel, data, factors, 0, "retry")


class TestInjectedFaultExactness:
    @pytest.mark.parametrize("kernel", ["exact", "dimtree", "sampled-dimtree"])
    def test_retry_run_matches_fault_free_bitwise(self, kernel):
        tensor = _tensor(3)
        kwargs = dict(n_iter_max=4, tol=0.0, seed=3, kernel=kernel)
        baseline = parallel_cp_als(tensor, RANK, N_PROCS, **kwargs)
        schedule = FaultSchedule.seeded(17, n_faults=5)
        faulted = parallel_cp_als(
            tensor, RANK, N_PROCS, machine=FaultyMachine(N_PROCS, schedule),
            on_fault="retry", **kwargs,
        )
        assert faulted.machine.injected
        assert faulted.als.fits == baseline.als.fits
        for a, b in zip(faulted.als.model.factors, baseline.als.model.factors):
            assert np.array_equal(a, b)
        retry_ledger_drift(faulted.machine, baseline.machine).raise_on_drift()

    def test_injection_counter_traced(self):
        schedule = FaultSchedule.seeded(17, n_faults=5)
        with tracing() as session:
            outcome = parallel_cp_als(
                _tensor(3), RANK, N_PROCS, n_iter_max=4, tol=0.0, seed=3,
                kernel="dimtree", machine=FaultyMachine(N_PROCS, schedule),
                on_fault="retry",
            )
        assert session.metrics.counters()["fault.injected"] == len(
            outcome.machine.injected
        )

    @pytest.mark.parametrize("kernel", ["exact", "general", "dimtree"])
    def test_seeded_schedule_harness(self, kernel):
        """A seeded schedule on a FaultyMachine recovers exactly per kernel."""
        schedule = FaultSchedule.seeded(23, n_faults=4)
        tensor = _tensor(4)
        kwargs = dict(n_iter_max=3, tol=0.0, seed=4, kernel=kernel)
        baseline = parallel_cp_als(tensor, RANK, N_PROCS, **kwargs)
        faulted = parallel_cp_als(
            tensor, RANK, N_PROCS, machine=FaultyMachine(N_PROCS, schedule),
            on_fault="retry", **kwargs,
        )
        assert faulted.als.fits == baseline.als.fits
        retry_ledger_drift(faulted.machine, baseline.machine).raise_on_drift()


class TestSolveEscalationAndValidation:
    def test_clean_problems_never_touch_the_fallbacks(self):
        with tracing() as session:
            cp_als(_tensor(5), RANK, n_iter_max=4, tol=0.0, seed=5)
        counters = session.metrics.counters()
        assert "als.solve.fallback" not in counters
        assert "als.solve.ridge" not in counters

    def test_singular_gram_escalates_to_lstsq(self):
        # A rank-1 tensor fit with R=3 makes the Gram product singular; the
        # clean solve fails and the lstsq fallback is counted.
        tensor = np.ones(SHAPE)
        with tracing() as session:
            result = cp_als(tensor, RANK, n_iter_max=3, tol=0.0, seed=0)
        assert session.metrics.counters()["als.solve.fallback"] >= 1
        assert np.all(np.isfinite(result.model.factors[0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("driver", ["cp_als", "parallel_cp_als"])
    def test_non_finite_tensor_rejected(self, driver, value):
        bad = _tensor(6)
        bad[1, 2, 3] = value
        machine = SimulatedMachine(N_PROCS)
        with pytest.raises(
            ParameterError, match=r"^tensor contains non-finite values \(NaN or Inf\)$"
        ):
            if driver == "cp_als":
                cp_als(bad, RANK, n_iter_max=2, seed=0)
            else:
                parallel_cp_als(bad, RANK, N_PROCS, n_iter_max=2, seed=0, machine=machine)
        assert machine.max_words_communicated == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_tensor_with_overflowing_squared_norm_passes(self):
        """The squared norm overflows to Inf; the full scan finds no bad entry."""
        result = cp_als(np.full(SHAPE, 1e160), 1, n_iter_max=1, tol=0.0, seed=0)
        assert result.n_iterations == 1
        assert np.all(np.isfinite(result.model.factors[0]))

    def test_non_finite_init_rejected(self):
        init = [
            np.random.default_rng(r).standard_normal((n, RANK))
            for r, n in enumerate(SHAPE)
        ]
        init[1][0, 0] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            cp_als(_tensor(7), RANK, n_iter_max=2, init=init)

    def test_parallel_driver_validates_too(self):
        bad = _tensor(8)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            parallel_cp_als(bad, RANK, N_PROCS, n_iter_max=2, seed=0)
