"""Deterministic fault injection and retrying collectives (ISSUE 10 tentpole).

Covers the fault model (:mod:`repro.resilience.faults`), the injecting
machine (:mod:`repro.resilience.machine`), the retry/backoff charging of the
collectives, and the exact retry-ledger reconciliation
(:func:`repro.observe.retry_ledger_drift`).
"""

import numpy as np
import pytest

from repro.exceptions import ParameterError, RankFailureError, RetryExhaustedError
from repro.observe.drift import retry_ledger_drift
from repro.parallel.collectives import (
    COLLECTIVE_KINDS,
    all_gather,
    all_reduce,
    reduce_scatter,
)
from repro.parallel.machine import SimulatedMachine
from repro.resilience import (
    FAULT_KINDS,
    FaultSchedule,
    FaultSpec,
    FaultyMachine,
)


def _blocks(n_procs, rows=3, cols=2, seed=0):
    rng = np.random.default_rng(seed)
    return {r: rng.standard_normal((rows, cols)) for r in range(n_procs)}


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ParameterError, match="unknown fault kind"):
            FaultSpec("meteor-strike")

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ParameterError, match="n_failures"):
            FaultSpec("drop", n_failures=0)
        with pytest.raises(ParameterError, match="delay_units"):
            FaultSpec("delay", delay_units=0)

    @pytest.mark.parametrize("collective", ["allgather", "gather", "broadcast"])
    def test_rejects_unknown_collective(self, collective):
        """A kind no collective emits would match nothing and inject no fault."""
        with pytest.raises(ParameterError, match="unknown collective"):
            FaultSpec("drop", collective=collective)

    def test_collective_kinds_are_the_kinds_emitted(self):
        machine = FaultyMachine(4)
        blocks = _blocks(4)
        all_gather(machine, range(4), blocks)
        reduce_scatter(machine, range(4), blocks)
        all_reduce(machine, range(4), blocks)
        assert {kind for _, kind, _ in machine.step_log} == set(COLLECTIVE_KINDS)

    @pytest.mark.parametrize("collective", COLLECTIVE_KINDS)
    def test_schedule_naming_an_emitted_kind_fires(self, collective):
        """An All-Reduce runs both kinds; a drop aimed at one hits only it."""
        machine = FaultyMachine(4, FaultSchedule([FaultSpec("drop", collective=collective)]))
        all_reduce(machine, range(4), _blocks(4))
        assert [(f.collective, f.fault_kind) for f in machine.injected] == [(collective, "drop")]

    def test_matching_filters(self):
        spec = FaultSpec(
            "drop", step=4, collective="all_gather", label="factor", rank=2
        )
        group = (0, 1, 2, 3)
        assert spec.matches("all_gather", "factor-gather/mode0", group, 4, 0)
        assert not spec.matches("all_gather", "factor-gather/mode0", group, 5, 0)
        assert not spec.matches("reduce_scatter", "factor-gather", group, 4, 0)
        assert not spec.matches("all_gather", "gram", group, 4, 0)
        assert not spec.matches("all_gather", "factor-gather", (0, 1), 4, 0)

    def test_drop_fires_on_first_n_attempts_only(self):
        spec = FaultSpec("drop", n_failures=2)
        assert spec.matches("all_gather", "x", (0,), 0, 0)
        assert spec.matches("all_gather", "x", (0,), 0, 1)
        assert not spec.matches("all_gather", "x", (0,), 0, 2)

    def test_delay_and_rank_failure_fire_once(self):
        for kind in ("delay", "rank-failure"):
            spec = FaultSpec(kind)
            assert spec.matches("all_gather", "x", (0,), 0, 0)
            assert not spec.matches("all_gather", "x", (0,), 0, 1)


class TestFaultSchedule:
    def test_rejects_non_spec_entries(self):
        with pytest.raises(ParameterError, match="not a FaultSpec"):
            FaultSchedule(["drop"])

    def test_match_returns_first_firing_spec(self):
        first = FaultSpec("delay", step=1)
        second = FaultSpec("drop", step=1)
        schedule = FaultSchedule([first, second])
        assert schedule.match("all_gather", "x", (0,), 1, 0) is first
        assert schedule.match("all_gather", "x", (0,), 0, 0) is None

    def test_seeded_is_deterministic(self):
        a = FaultSchedule.seeded(7, n_faults=6)
        b = FaultSchedule.seeded(7, n_faults=6)
        assert a.specs == b.specs
        assert len(a) == 6
        assert all(spec.kind in FAULT_KINDS for spec in a)
        assert FaultSchedule.seeded(8, n_faults=6).specs != a.specs

    def test_seeded_validates_inputs(self):
        with pytest.raises(ParameterError, match="n_faults"):
            FaultSchedule.seeded(1, n_faults=-1)
        with pytest.raises(ParameterError, match="unknown fault kind"):
            FaultSchedule.seeded(1, kinds=("drop", "typo"))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_faults", 2.5),
            ("n_faults", True),
            ("max_step", 0),
            ("max_step", 2.5),
            ("max_failures", 0),
            ("kinds", ()),
        ],
    )
    def test_seeded_rejects_bad_arguments_up_front(self, name, value):
        """Each is named before any draw: numpy's own errors, a silent
        truncation to an integer, or an empty kind list never reach a run."""
        with pytest.raises(ParameterError, match=name):
            FaultSchedule.seeded(1, **{name: value})


class TestFaultyMachine:
    def test_empty_schedule_behaves_like_base_machine(self):
        blocks = _blocks(4)
        base = SimulatedMachine(4)
        faulty = FaultyMachine(4)
        expected = all_gather(base, range(4), blocks, label="g")
        got = all_gather(faulty, range(4), blocks, label="g")
        for rank in range(4):
            assert np.array_equal(got[rank], expected[rank])
        assert np.array_equal(faulty.words_sent, base.words_sent)
        assert faulty.retry_words_sent.sum() == 0
        assert faulty.injected == []

    def test_steps_number_collectives_in_order(self):
        machine = FaultyMachine(3)
        blocks = _blocks(3)
        all_gather(machine, range(3), blocks, label="first")
        reduce_scatter(machine, range(3), blocks, label="second")
        assert [entry[0] for entry in machine.step_log] == [0, 1]
        assert machine.step_log[0][1] == "all_gather"
        assert machine.step_log[0][2] == "first"
        assert machine.step_log[1][1] == "reduce_scatter"

    def test_step_stable_across_retries(self):
        # Two failures on step 0: three consults, one collective, one step.
        machine = FaultyMachine(
            2, FaultSchedule([FaultSpec("drop", step=0, n_failures=2)])
        )
        all_gather(machine, range(2), _blocks(2), label="g")
        assert machine.collective_steps == 1
        assert [fault.attempt for fault in machine.injected] == [0, 1]
        assert all(fault.step == 0 for fault in machine.injected)

    def test_drop_charges_retry_ledgers_and_delivers_intact(self):
        blocks = _blocks(4)
        base = SimulatedMachine(4)
        expected = all_gather(base, range(4), blocks, label="g")

        machine = FaultyMachine(
            4, FaultSchedule([FaultSpec("corrupt", step=0, n_failures=1)])
        )
        got = all_gather(machine, range(4), blocks, label="g")
        for rank in range(4):
            assert np.array_equal(got[rank], expected[rank])
        # One wasted attempt: the collective's full traffic lands on the
        # retry ledgers and again on the main ledgers, with backoff 2**0.
        assert np.array_equal(machine.retry_words_sent, base.words_sent)
        assert np.array_equal(machine.words_sent, 2 * base.words_sent)
        assert machine.retry_messages_sent.sum() > 0
        assert machine.backoff_units.sum() == machine.n_procs

    def test_backoff_grows_exponentially(self):
        machine = FaultyMachine(
            2, FaultSchedule([FaultSpec("drop", step=0, n_failures=3)])
        )
        all_gather(machine, range(2), _blocks(2), label="g")
        # Wasted attempts 0, 1, 2 charge 1 + 2 + 4 backoff units per rank.
        assert machine.backoff_units.tolist() == [7, 7]

    def test_delay_charges_only_the_delay_ledger(self):
        base = SimulatedMachine(3)
        all_gather(base, range(3), _blocks(3), label="g")
        machine = FaultyMachine(
            3, FaultSchedule([FaultSpec("delay", step=0, delay_units=5)])
        )
        all_gather(machine, range(3), _blocks(3), label="g")
        assert np.array_equal(machine.words_sent, base.words_sent)
        assert machine.retry_words_sent.sum() == 0
        assert machine.delay_units.sum() == 5 * machine.n_procs

    def test_retry_budget_exhaustion(self):
        machine = FaultyMachine(
            2,
            FaultSchedule([FaultSpec("drop", step=0, n_failures=5)]),
            max_attempts=5,
        )
        with pytest.raises(RetryExhaustedError):
            all_gather(machine, range(2), _blocks(2), label="g")

    def test_rank_failure_propagates(self):
        machine = FaultyMachine(
            2, FaultSchedule([FaultSpec("rank-failure", step=0)])
        )
        with pytest.raises(RankFailureError):
            all_gather(machine, range(2), _blocks(2), label="g")

    def test_reset_clears_fault_bookkeeping(self):
        machine = FaultyMachine(2, FaultSchedule([FaultSpec("delay", step=0)]))
        all_gather(machine, range(2), _blocks(2), label="g")
        assert machine.injected and machine.step_log
        machine.reset()
        assert machine.injected == []
        assert machine.step_log == []
        assert machine.collective_steps == 0
        assert machine.delay_units.sum() == 0
        # The schedule survives a reset, so a replay injects again.
        all_gather(machine, range(2), _blocks(2), label="g")
        assert machine.injected


class TestRetryLedgerDrift:
    def _run_collectives(self, machine):
        blocks = _blocks(machine.n_procs, seed=3)
        all_gather(machine, range(machine.n_procs), blocks, label="gather")
        reduce_scatter(machine, range(machine.n_procs), blocks, label="rs")
        all_reduce(machine, range(machine.n_procs), blocks, label="ar")

    def test_faulted_ledger_reconciles_exactly(self):
        base = SimulatedMachine(4)
        self._run_collectives(base)
        schedule = FaultSchedule(
            [
                FaultSpec("drop", step=0, n_failures=2),
                FaultSpec("corrupt", step=1),
                FaultSpec("drop", step=2),  # the All-Reduce's Reduce-Scatter
                FaultSpec("delay", step=2, delay_units=3),
            ]
        )
        machine = FaultyMachine(4, schedule)
        self._run_collectives(machine)
        report = retry_ledger_drift(machine, base)
        assert report.ok
        report.raise_on_drift()
        assert machine.retry_words_sent.sum() > 0

    def test_drift_detected_when_retries_unaccounted(self):
        base = SimulatedMachine(4)
        self._run_collectives(base)
        machine = FaultyMachine(4, FaultSchedule([FaultSpec("drop", step=0)]))
        self._run_collectives(machine)
        machine.retry_words_sent[:] = 0  # lose the retry accounting
        report = retry_ledger_drift(machine, base)
        assert not report.ok
        with pytest.raises(AssertionError, match="retry-ledger drift"):
            report.raise_on_drift()

    def test_bare_array_baseline_checks_sent_words(self):
        machine = FaultyMachine(4, FaultSchedule([FaultSpec("corrupt", step=0)]))
        self._run_collectives(machine)
        baseline = machine.words_sent - machine.retry_words_sent
        report = retry_ledger_drift(machine, baseline)
        assert report.ok
        assert {record.quantity for record in report.records} == {"words_sent"}

    def test_rank_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="ranks"):
            retry_ledger_drift(FaultyMachine(4), SimulatedMachine(3))
