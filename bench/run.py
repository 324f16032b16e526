"""CP-ALS sweep benchmark: run workloads and print their metrics.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--out PATH] [--smoke]

Each phase of each workload runs in its own fresh process (``phase.py``)
with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS and
REPRO_THREADS pinned to 1 before numpy loads.  ``--trace 0`` runs the
untraced phase, which gives the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the traced phase, which gives its per-layer metrics;
without ``--trace`` both run.  The untraced phase is followed by two
``phase.py --setup-only`` processes, and ``setup_s`` is the median of the
three cold set-ups.  For every workload one JSON line
``{"correct", "attempted", "failed", "metrics"}`` is printed, the last
workload's last.  ``--out`` also writes every phase's full record, with
its host block and samples, for ``compare.py``.

The benchmark runs the package under ``src/`` of the checkout it sits in
and fails, printing no result, where there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import PINNED_ENV, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Which BENCHMARK.json list each phase must report in full.
PHASE_METRICS = {0: "end_to_end", 1: "per_layer"}

#: Cold set-ups behind ``setup_s``, each in a fresh process: the untraced
#: phase's own and those of ``phase.py --setup-only``.
COLD_SETUPS = 3


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def run_phase(workload: str, trace: int, args, *extra: str) -> dict:
    """Run one phase of one workload in a fresh process; return its record."""
    command = [
        sys.executable,
        str(BENCH / "phase.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        *extra,
    ]
    if args.smoke:
        command.append("--smoke")
    print(f"[bench] {workload} trace={trace} seed={args.seed} {' '.join(extra)}",
          file=sys.stderr, flush=True)
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env={**os.environ, **PINNED_ENV},
            stdout=subprocess.PIPE,
            text=True,
            timeout=110 + 3 * args.seconds,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} trace={trace} timed out") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"{workload} trace={trace} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def add_cold_setups(record: dict, args) -> None:
    """Set an untraced record's ``setup_s`` to the median of COLD_SETUPS processes."""
    workload = record["workload"]
    for _ in range(COLD_SETUPS - 1):
        record["setup_s"].append(run_phase(workload, 0, args, "--setup-only")["setup_s"])
    record["result"]["metrics"]["setup_s"]["value"] = statistics.median(record["setup_s"])


def check_metrics(record: dict, spec: dict) -> None:
    """Every metric BENCHMARK.json names for the phase, each with its unit, and no other."""
    expected = {m["name"]: m["unit"] for m in spec[PHASE_METRICS[record["trace"]]]}
    got = {name: m["unit"] for name, m in record["result"]["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        raise BenchmarkError(
            f"{record['workload']} trace={record['trace']}: metrics disagree with "
            f"BENCHMARK.json (missing {missing}, extra {extra}, wrong units {units})"
        )


def merge(records) -> dict:
    """One result object for the phases of one workload."""
    return {
        "correct": all(r["result"]["correct"] for r in records),
        "attempted": sum(r["result"]["attempted"] for r in records),
        "failed": sum(r["result"]["failed"] for r in records),
        "metrics": {k: v for r in records for k, v in r["result"]["metrics"].items()},
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 20))
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both phases")
    parser.add_argument("--out", type=Path, help="write every phase's full record here")
    parser.add_argument("--smoke", action="store_true", help="12 per mode at rank 3, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"[bench] no package at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if not spec:
        print(f"[bench] {spec_path} is missing", file=sys.stderr)
        return 2

    phases = (0, 1) if args.trace is None else (args.trace,)
    runs, lines = [], []
    try:
        for workload in args.workload:
            records = [run_phase(workload, trace, args) for trace in phases]
            for record in records:
                check_metrics(record, spec)
                if record["trace"] == 0:
                    add_cold_setups(record, args)
            runs.extend(records)
            lines.append(json.dumps(merge(records)))
    except BenchmarkError as exc:
        print(f"[bench] {exc}", file=sys.stderr)
        return 1
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
