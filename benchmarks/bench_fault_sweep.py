"""Benchmark / reproduction harness for experiment ``fault-sweep``.

The recovery-overhead frontier of the resilience layer (ISSUE 10): seeded
fault schedules injected into distributed CP-ALS runs with
``on_fault="retry"``, per (kernel, fault density) — the retry words charged,
the backoff/delay units, and the overhead ratio against the fault-free run —
recorded as deterministic JSON (``benchmarks/fault_sweep_frontier.json``,
override with the ``FAULT_SWEEP_FRONTIER_JSON`` environment variable).

Every recorded value is a word count, a seeded schedule, or a seeded-run fit
— no wall clock — so the file is reproducible byte for byte; the frontier
rows themselves assert the two exactness claims (ledger reconciliation and
bitwise fit equality) before being emitted.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import emit
from repro.cp.parallel_als import parallel_cp_als
from repro.experiments.fault_sweep import (
    fault_sweep_frontier,
    format_fault_sweep_table,
    FaultSweepRow,
)
from repro.resilience import CheckpointStore, FaultSchedule, FaultyMachine

#: The acceptance toy problem: 8 x 8 x 6, R = 3, P = 4.
TOY_SHAPE = (8, 8, 6)
TOY_RANK = 3
TOY_PROCS = 4


@pytest.fixture(scope="module")
def base_seed(request):
    return int(request.config.getoption("--seed"))


def test_faulted_als_simulation(benchmark, base_seed):
    """Simulation throughput of distributed ALS under an injected schedule."""
    rng = np.random.default_rng(base_seed)
    tensor = rng.standard_normal(TOY_SHAPE)
    schedule = FaultSchedule.seeded(base_seed + 11, n_faults=4)

    def run():
        return parallel_cp_als(
            tensor,
            TOY_RANK,
            TOY_PROCS,
            kernel="dimtree",
            n_iter_max=4,
            tol=0.0,
            seed=base_seed,
            machine=FaultyMachine(TOY_PROCS, schedule),
            on_fault="retry",
        )

    outcome = benchmark(run)
    assert np.isfinite(outcome.als.final_fit)
    assert outcome.total_words > 0


def test_checkpoint_resume_simulation(benchmark, base_seed):
    """Simulation throughput of a checkpoint capture + bitwise resume cycle."""
    rng = np.random.default_rng(base_seed)
    tensor = rng.standard_normal(TOY_SHAPE)

    def run():
        store = CheckpointStore()
        parallel_cp_als(
            tensor,
            TOY_RANK,
            TOY_PROCS,
            kernel="dimtree",
            n_iter_max=2,
            tol=0.0,
            seed=base_seed,
            checkpoint_store=store,
        )
        return parallel_cp_als(
            tensor,
            TOY_RANK,
            TOY_PROCS,
            kernel="dimtree",
            n_iter_max=4,
            tol=0.0,
            seed=base_seed,
            resume_from=store.latest(),
        )

    resumed = benchmark(run)
    full = parallel_cp_als(
        tensor,
        TOY_RANK,
        TOY_PROCS,
        kernel="dimtree",
        n_iter_max=4,
        tol=0.0,
        seed=base_seed,
    )
    assert resumed.als.fits[2:] == full.als.fits[2:]


@pytest.fixture(scope="module")
def frontier(base_seed):
    """The recovery-overhead frontier, computed once for the record tests."""
    return fault_sweep_frontier(seed=base_seed, fault_seed=base_seed + 8)


def test_fault_sweep_frontier_json(frontier):
    """Record the recovery-overhead frontier as deterministic JSON."""
    target = Path(
        os.environ.get(
            "FAULT_SWEEP_FRONTIER_JSON",
            Path(__file__).parent / "fault_sweep_frontier.json",
        )
    )
    target.write_text(
        json.dumps(frontier, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    rows = [
        FaultSweepRow(**{k: v for k, v in row.items() if k != "overhead"})
        for row in frontier["rows"]
    ]
    emit("fault-sweep", format_fault_sweep_table(rows))

    # Every recorded row passed both exactness gates when it was built.
    assert all(row["fits_equal"] for row in frontier["rows"])
    assert all(row["ledger_exact"] for row in frontier["rows"])
    assert json.loads(target.read_text(encoding="utf-8"))["rows"]


def test_zero_fault_rows_have_zero_overhead(frontier):
    """Control rows (0 scheduled faults) charge nothing to the retry ledgers."""
    controls = [row for row in frontier["rows"] if row["n_faults_scheduled"] == 0]
    assert controls
    for row in controls:
        assert row["retry_words"] == 0
        assert row["backoff_units"] == 0
        assert row["faulted_words"] == row["baseline_words"]
        assert row["overhead"] == 1.0


def test_faulted_rows_charge_retries(frontier):
    """At the densest schedule every kernel actually injected and recovered."""
    dense = [row for row in frontier["rows"] if row["n_faults_scheduled"] == 8]
    assert dense
    for row in dense:
        assert row["n_faults_injected"] > 0
        assert row["retry_words"] + row["delay_units"] > 0
