"""One phase of one workload of the CP-ALS sweep benchmark, in this process.

    python3 bench/phase.py --workload NAME --seed N --seconds S --trace 0|1
                           [--smoke] [--setup-only]

``run.py`` starts this script in a fresh process per workload and phase,
with every BLAS and executor thread count pinned to 1.  The script prints
one JSON record as its last line of standard output: the result
(``correct``, ``attempted``, ``failed``, ``metrics``), the host and
provenance block, and the samples behind every median.

The untraced phase (``--trace 0``), defined here, gives the end-to-end
metrics.  The traced phase (``--trace 1``) is in ``layers.py``.  With
``--setup-only`` the process sets up, prints ``{"setup_s": ...}`` and
exits, so that ``run.py`` can time more cold set-ups than one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

_IMPORT_START = time.perf_counter()
import repro  # noqa: E402

#: ``perf_counter()`` just after ``import repro``; set-up is timed from here.
IMPORTED = time.perf_counter()

#: Seconds ``import repro`` took in this process, numpy already imported.
IMPORT_S = IMPORTED - _IMPORT_START

from harness import Phase, median, metric  # noqa: E402
from workloads import EXACT_SLOTS, PINNED_ENV, WORKLOADS, Workload  # noqa: E402


def cold_setup(workload: Workload, seed: int) -> Tuple[Phase, float]:
    """An untraced phase, set up, and its seconds from just after ``import repro``.

    Only the first set-up in a process pays einsum path planning, lazy
    imports and executor start, so a process times one set-up only.
    """
    phase = Phase(workload, seed, EXACT_SLOTS)
    phase.setup()
    return phase, time.perf_counter() - IMPORTED


def untraced_phase(workload: Workload, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one workload, with tracing off.

    ``setup_s`` is this process's cold set-up; ``run.py`` replaces it with
    the median of this one and those of ``--setup-only`` processes.
    """
    phase, setup_s = cold_setup(workload, seed)
    calls = phase.closed_loop(seconds, phase.call)

    metrics: Dict[str, dict] = {}
    samples: Dict[str, dict] = {}
    for slot in EXACT_SLOTS:
        metrics[f"sweep_rel.{slot}"] = metric(
            median(rel for c in calls[slot] for rel in c.steady_rel), "x"
        )
        samples[slot] = {
            "first_ms": [c.first_ms for c in calls[slot]],
            "steady_ms": [c.steady_ms for c in calls[slot]],
            "numpy_sweep_ms": [c.numpy_sweep_ms for c in calls[slot]],
        }
    # The other slots' first sweeps, one sample per call, spread too widely
    # to gate; they are per-layer (``cp.first_sweep_rel.<slot>``).
    metrics["first_sweep_rel.default"] = metric(
        median(c.first_rel for c in calls["default"]), "x"
    )
    metrics["setup_s"] = metric(setup_s, "s")
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
    )
    return {
        "result": phase.result(metrics),
        "samples": samples,
        "setup_s": [setup_s],
        "fits": {slot: ref.fits for slot, ref in phase.reference.items()},
        "failures": phase.failures,
    }


# -- host and provenance ------------------------------------------------------
def cache_bytes(level: int) -> Optional[int]:
    """Size of CPU 0's unified or data cache at ``level``, from sysfs."""
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(root.glob("index*")):
            if int((index / "level").read_text()) != level:
                continue
            if (index / "type").read_text().strip() not in ("Unified", "Data"):
                continue
            size = (index / "size").read_text().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
            return int(size.rstrip("KMG")) * scale
    except (OSError, ValueError):
        pass
    return None


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git.

    ``None`` when the checkout is not a git clone.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.25 has no dict mode
        return {}
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def host_block(workload: Workload) -> dict:
    l3 = cache_bytes(3)
    return {
        "host": {
            "cpu_count": os.cpu_count(),
            "l2_bytes": cache_bytes(2),
            "l3_bytes": l3,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
            "thread_pins": {var: os.environ.get(var) for var in PINNED_ENV},
        },
        "provenance": {"git_commit": git_commit(), "repro_version": repro.__version__},
        "input": {
            "shape": list(workload.shape),
            "rank": workload.rank,
            "procs": workload.procs,
            "sweeps": workload.sweeps,
            # Computed from the shape, not measured traffic.  The bandwidth
            # rule of thumb wants at least 4x the last-level cache.
            "tensor_bytes": workload.tensor_bytes,
            "tensor_over_l3": workload.tensor_bytes / l3 if l3 else None,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="12 per mode at rank 3")
    parser.add_argument(
        "--setup-only", action="store_true", help="print this process's cold set-up seconds"
    )
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    if args.setup_only:
        print(json.dumps({"setup_s": cold_setup(workload, args.seed)[1]}))
        return 0
    if args.trace:
        from layers import traced_phase

        record = traced_phase(workload, args.seed, args.seconds, IMPORT_S)
    else:
        record = untraced_phase(workload, args.seed, args.seconds)
    record.update(
        workload=args.workload,
        trace=args.trace,
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        **host_block(workload),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
