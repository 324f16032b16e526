"""repro.resilience — deterministic fault injection and exact recovery.

The robustness layer of the simulated distributed stack (ISSUE 10): a seeded
:class:`~repro.resilience.faults.FaultSchedule` +
:class:`~repro.resilience.machine.FaultyMachine` inject rank failures,
dropped/corrupted collective payloads, and latency spikes at chosen
(step, collective, rank) points; the collectives of
:mod:`repro.parallel.collectives` re-drive failed attempts with exponential
backoff, charging the wasted traffic to dedicated retry ledgers the drift
detector (:func:`repro.observe.retry_ledger_drift`) reconciles exactly; and
:mod:`repro.resilience.checkpoint` captures/restores full ALS state so a run
killed at sweep *k* resumes bitwise identical to the uninterrupted run for
every kernel in both registries.
"""

from repro.resilience.checkpoint import CheckpointState, CheckpointStore
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultSchedule,
    FaultSpec,
    InjectedFault,
    poison_kernel_cache,
)
from repro.resilience.machine import FaultyMachine

__all__ = [
    "FAULT_KINDS",
    "CheckpointState",
    "CheckpointStore",
    "FaultSchedule",
    "FaultSpec",
    "FaultyMachine",
    "InjectedFault",
    "poison_kernel_cache",
]
