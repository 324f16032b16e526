"""Experiment ``fault-sweep``: the recovery-overhead frontier under injected faults.

The resilience layer (ISSUE 10) claims its recovery is *exact*: a distributed
ALS run under a seeded :class:`~repro.resilience.faults.FaultSchedule` with
``on_fault="retry"`` reaches bitwise the fits of the fault-free run, and its
ledger equals the fault-free ledger plus exactly the charged retries (the
:func:`repro.observe.retry_ledger_drift` invariant).  This harness *measures*
that claim across kernels and fault densities and records what the recovery
costs:

* per (kernel, fault density) point: the faults actually injected, the retry
  words/messages charged, the backoff and delay units accumulated, and the
  **overhead ratio** ``words_under_faults / fault_free_words`` (max over
  ranks) — the recovery-overhead frontier;
* every row *asserts* the two exactness claims before it is emitted —
  ``raise_on_drift`` on the retry-ledger reconciliation and ``==`` on the fit
  histories — so a recorded frontier is itself a passed test.

All quantities are deterministic counts and seeded-run fits (no wall-clock),
so the JSON frontier recorded by ``benchmarks/bench_fault_sweep.py``
regenerates byte for byte on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cp.parallel_als import parallel_cp_als
from repro.experiments.report import format_table
from repro.observe.drift import retry_ledger_drift
from repro.resilience.faults import FaultSchedule
from repro.resilience.machine import FaultyMachine
from repro.utils.validation import check_positive_int, check_rank, check_shape

#: Default seeded problem (small: every point runs two full simulated runs).
DEFAULT_SHAPE = (8, 8, 6)
DEFAULT_RANK = 3
DEFAULT_N_PROCS = 4
DEFAULT_N_SWEEPS = 4
#: Kernels swept (one per communication pattern: per-mode gathers, cached
#: gathers + trees, cached gathers + Gram All-Reduce + replicated draws).
DEFAULT_KERNELS = ("exact", "dimtree", "sampled-dimtree")
#: The fault-density axis: scheduled faults per run (0 = the control row).
DEFAULT_FAULT_COUNTS = (0, 2, 4, 8)


@dataclass(frozen=True)
class FaultSweepRow:
    """One (kernel, fault density) point of the recovery-overhead frontier."""

    kernel: str
    n_faults_scheduled: int
    n_faults_injected: int
    baseline_words: int
    faulted_words: int
    retry_words: int
    retry_messages: int
    backoff_units: int
    delay_units: int
    final_fit: float
    fits_equal: bool
    ledger_exact: bool

    @property
    def overhead(self) -> float:
        """Max-per-rank words under faults relative to fault-free (>= 1.0)."""
        if self.baseline_words == 0:
            return 1.0
        return self.faulted_words / self.baseline_words

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "n_faults_scheduled": self.n_faults_scheduled,
            "n_faults_injected": self.n_faults_injected,
            "baseline_words": self.baseline_words,
            "faulted_words": self.faulted_words,
            "retry_words": self.retry_words,
            "retry_messages": self.retry_messages,
            "backoff_units": self.backoff_units,
            "delay_units": self.delay_units,
            "overhead": self.overhead,
            "final_fit": self.final_fit,
            "fits_equal": self.fits_equal,
            "ledger_exact": self.ledger_exact,
        }


def fault_sweep_rows(
    shape: Sequence[int] = DEFAULT_SHAPE,
    rank: int = DEFAULT_RANK,
    *,
    n_procs: int = DEFAULT_N_PROCS,
    n_sweeps: int = DEFAULT_N_SWEEPS,
    kernels: Sequence[str] = DEFAULT_KERNELS,
    fault_counts: Sequence[int] = DEFAULT_FAULT_COUNTS,
    seed: int = 3,
    fault_seed: int = 11,
) -> List[FaultSweepRow]:
    """Measure the recovery-overhead frontier over a kernel x density sweep.

    Every point runs a fault-free baseline and a faulted run under
    ``FaultSchedule.seeded(fault_seed + index, n_faults=density)`` with
    ``on_fault="retry"`` and ``tol=0.0`` (a fixed sweep count, so the two
    runs execute identical schedules), asserts the retry-ledger invariant
    exactly (``raise_on_drift``) and the fit histories bitwise equal, and
    records the charged recovery cost.
    """
    shape = check_shape(shape, min_ndim=2)
    rank = check_rank(rank)
    n_procs = check_positive_int(n_procs, "n_procs")
    rng = np.random.default_rng(seed)
    tensor = rng.standard_normal(shape)
    rows: List[FaultSweepRow] = []
    index = 0
    for kernel in kernels:
        baseline = parallel_cp_als(
            tensor,
            rank,
            n_procs,
            kernel=kernel,
            n_iter_max=int(n_sweeps),
            tol=0.0,
            seed=seed,
        )
        for n_faults in fault_counts:
            schedule = FaultSchedule.seeded(
                fault_seed + index, n_faults=int(n_faults)
            )
            index += 1
            faulted = parallel_cp_als(
                tensor,
                rank,
                n_procs,
                kernel=kernel,
                n_iter_max=int(n_sweeps),
                tol=0.0,
                seed=seed,
                machine=FaultyMachine(n_procs, schedule),
                on_fault="retry",
            )
            report = retry_ledger_drift(faulted.machine, baseline.machine)
            report.raise_on_drift()
            fits_equal = faulted.als.fits == baseline.als.fits
            if not fits_equal:
                raise AssertionError(
                    f"kernel {kernel!r} under {n_faults} faults diverged from "
                    "the fault-free fits — recovery is not exact"
                )
            machine = faulted.machine
            rows.append(
                FaultSweepRow(
                    kernel=kernel,
                    n_faults_scheduled=int(n_faults),
                    n_faults_injected=len(getattr(machine, "injected", [])),
                    baseline_words=int(baseline.machine.words_sent.max()),
                    faulted_words=int(machine.words_sent.max()),
                    retry_words=int(machine.retry_words_sent.sum()),
                    retry_messages=int(machine.retry_messages_sent.sum()),
                    backoff_units=int(machine.backoff_units.sum()),
                    delay_units=int(machine.delay_units.sum()),
                    final_fit=float(faulted.als.final_fit),
                    fits_equal=fits_equal,
                    ledger_exact=report.ok,
                )
            )
    return rows


def format_fault_sweep_table(rows: Optional[List[FaultSweepRow]] = None) -> str:
    """Render the recovery-overhead frontier as a text table."""
    if rows is None:
        rows = fault_sweep_rows()
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.kernel,
                row.n_faults_scheduled,
                row.n_faults_injected,
                row.baseline_words,
                row.faulted_words,
                row.retry_words,
                row.backoff_units,
                row.delay_units,
                f"{row.overhead:.4f}",
                "yes" if row.fits_equal else "no",
                "yes" if row.ledger_exact else "no",
            ]
        )
    return format_table(
        [
            "kernel",
            "faults scheduled",
            "faults injected",
            "baseline words",
            "faulted words",
            "retry words",
            "backoff",
            "delay",
            "overhead",
            "fits equal",
            "ledger exact",
        ],
        table_rows,
        title=(
            "Fault-injected distributed CP-ALS: recovery overhead vs the "
            "fault-free run (retry ledger reconciled exactly per row)"
        ),
    )


def fault_sweep_frontier(
    shape: Sequence[int] = DEFAULT_SHAPE,
    rank: int = DEFAULT_RANK,
    *,
    n_procs: int = DEFAULT_N_PROCS,
    n_sweeps: int = DEFAULT_N_SWEEPS,
    kernels: Sequence[str] = DEFAULT_KERNELS,
    fault_counts: Sequence[int] = DEFAULT_FAULT_COUNTS,
    seed: int = 3,
    fault_seed: int = 11,
) -> dict:
    """JSON-serialisable frontier (recorded by ``bench_fault_sweep``).

    Deterministic by construction: word counts, seeded schedules, and seeded
    fits only — rerunning with the same seeds reproduces the file byte for
    byte on any machine.
    """
    rows = fault_sweep_rows(
        shape,
        rank,
        n_procs=n_procs,
        n_sweeps=n_sweeps,
        kernels=kernels,
        fault_counts=fault_counts,
        seed=seed,
        fault_seed=fault_seed,
    )
    return {
        "problem": {
            "shape": list(check_shape(shape)),
            "rank": int(rank),
            "n_procs": int(n_procs),
            "n_sweeps": int(n_sweeps),
            "kernels": list(kernels),
            "fault_counts": [int(n) for n in fault_counts],
            "seed": int(seed),
            "fault_seed": int(fault_seed),
        },
        "rows": [row.to_dict() for row in rows],
    }
