"""Workloads and slots of the CP-ALS sweep benchmark.

Plain data with no numpy import, so ``run.py`` can validate its arguments
before it starts a workload process.  Why each workload is in the set is
recorded in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: A slot is what a user passes as ``kernel=``; ``default`` passes nothing.
SLOTS = ("default", "auto", "dimtree", "sampled-dimtree")

#: Slots that compute every MTTKRP exactly, so their fits must agree.  They
#: are also the untraced phase's slots, the ones its end-to-end metrics
#: gate: every workload must report every gated name, and at 1.6 s per
#: sweep ``sampled-dimtree`` leaves ``lopsided-4way`` too few samples of
#: the other slots to hold them within their bound.  It runs in the
#: traced phase only.
EXACT_SLOTS = ("default", "auto", "dimtree")

#: Slots that run ``parallel_cp_als`` on a workload with simulated ranks.
#: ``auto`` has no distributed counterpart and always runs ``cp_als``.
MACHINE_SLOTS = ("default", "dimtree", "sampled-dimtree")

#: Noise relative to the low-rank signal, for every workload's input.
NOISE_LEVEL = 0.1

#: Set in every workload process before numpy loads: one BLAS thread and one
#: executor thread, so a process uses one of the host's CPUs.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    """One input and the ALS calls the benchmark makes on it."""

    name: str
    shape: Tuple[int, ...]
    rank: int
    #: ALS sweeps per call, per slot.  Long sweeps get fewer, so that every
    #: slot completes several calls in one run.
    sweeps: Dict[str, int]
    #: Simulated ranks for the MACHINE_SLOTS; 0 runs every slot on ``cp_als``.
    procs: int = 0

    @property
    def threaded_slot(self) -> str:
        """The slot whose kernel runs chunks on the thread executor."""
        return "default" if self.procs else "auto"

    @property
    def tensor_bytes(self) -> int:
        """Bytes of the dense float64 input (computed, not measured)."""
        size = 8
        for extent in self.shape:
            size *= extent
        return size

    def smoke(self) -> "Workload":
        """The same workload shrunk to 12 per mode at rank 3, for tests."""
        return Workload(
            self.name,
            (12,) * len(self.shape),
            3,
            {slot: 3 for slot in SLOTS},
            self.procs,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cubic-300",
            (300, 300, 300),
            16,
            {"default": 3, "auto": 3, "dimtree": 3, "sampled-dimtree": 3},
        ),
        Workload(
            "lopsided-4way",
            (320, 40, 40, 24),
            32,
            {"default": 3, "auto": 3, "dimtree": 3, "sampled-dimtree": 2},
        ),
        Workload(
            "parallel-p4",
            (240, 240, 240),
            16,
            {"default": 4, "auto": 4, "dimtree": 4, "sampled-dimtree": 3},
            procs=4,
        ),
    )
}
