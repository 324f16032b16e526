"""``python -m repro.experiments trace-report``: a traced ALS run, tabulated.

Runs one seeded CP-ALS decomposition (sequential or simulated-parallel) with
the :mod:`repro.observe` tracer installed and renders a per-sweep phase
table — wall-clock seconds beside the counted flops/words and the simulated
collective words each sweep accrued — plus the cache/sampler counter
snapshot and p50/p99 sweep latency.  Optional flags export the Chrome
trace-event JSON (loadable in Perfetto / ``chrome://tracing``), export the
metrics snapshot, and run the measured-vs-modelled drift detector, failing
the process on any discrepancy (the CI smoke step uses exactly that).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.experiments.report import format_table

#: Kernels the traced run can exercise (`--procs 0` runs them sequentially,
#: `--procs P` on the simulated machine; ``"msdt"`` has no distributed form).
TRACE_KERNELS = ("dimtree", "msdt", "sampled-dimtree")


def build_trace_report_parser() -> argparse.ArgumentParser:
    """The ``trace-report`` argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments trace-report",
        description="Run a traced CP-ALS sweep and print the per-sweep phase table.",
    )
    parser.add_argument(
        "--kernel",
        choices=TRACE_KERNELS,
        default="dimtree",
        help="sweep kernel to trace (default: dimtree)",
    )
    parser.add_argument(
        "--shape",
        type=int,
        nargs="+",
        default=[8, 9, 10],
        help="tensor shape of the seeded problem (default: 8 9 10)",
    )
    parser.add_argument("--rank", type=int, default=3, help="CP rank (default: 3)")
    parser.add_argument(
        "--sweeps", type=int, default=4, help="ALS sweeps to run (default: 4)"
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=0,
        help="simulated processors; 0 runs the sequential driver (default: 0)",
    )
    parser.add_argument("--seed", type=int, default=0, help="problem/init seed")
    parser.add_argument(
        "--export-trace",
        type=str,
        default=None,
        metavar="PATH",
        help="write the Chrome trace-event JSON here (Perfetto-loadable)",
    )
    parser.add_argument(
        "--export-metrics",
        type=str,
        default=None,
        metavar="PATH",
        help="write the sorted-key metrics snapshot JSON here",
    )
    parser.add_argument(
        "--check-drift",
        action="store_true",
        help="compare traced spans against the cost-model replay; exit 1 on drift",
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help="write the report to this file instead of stdout",
    )
    return parser


def _traced_run(args):
    """Run the requested ALS decomposition under tracing; return the session."""
    from repro.observe import tracing
    from repro.tensor.random import noisy_low_rank_tensor

    tensor = noisy_low_rank_tensor(
        tuple(args.shape), args.rank, noise_level=0.05, seed=args.seed
    )
    # tol=0.0 never satisfies the fit-change test, so the driver runs exactly
    # --sweeps iterations — the drift detector needs a known sweep count.
    with tracing() as session:
        if args.procs > 0:
            from repro.cp.parallel_als import parallel_cp_als

            result = parallel_cp_als(
                tensor,
                args.rank,
                args.procs,
                kernel=args.kernel,
                n_iter_max=args.sweeps,
                tol=0.0,
                seed=args.seed + 1,
            )
            grid = result.grids[0]
        else:
            from repro.cp.als import cp_als

            cp_als(
                tensor,
                args.rank,
                n_iter_max=args.sweeps,
                tol=0.0,
                seed=args.seed + 1,
                kernel=args.kernel,
            )
            grid = None
    return session, grid


def _phase_table(session) -> str:
    """The per-sweep phase table: seconds beside the accrued ledgers."""
    rows: List[List[object]] = []
    for index, span in enumerate(
        sorted(session.spans_named("sweep"), key=lambda s: s.span_id)
    ):
        rows.append(
            [
                index,
                span.attrs.get("iteration", ""),
                span.duration,
                span.flops,
                span.words,
                span.comm_words,
                span.messages,
            ]
        )
    return format_table(
        ["sweep", "iteration", "seconds", "flops", "words", "comm words", "messages"],
        rows,
        title="Traced ALS sweeps (counted ledgers attributed per phase)",
    )


def _summary_lines(session) -> List[str]:
    """Counter snapshot plus the sweep-latency percentiles."""
    lines = ["", "Counters:"]
    counters = session.metrics.counters()
    if counters:
        width = max(len(name) for name in counters)
        lines.extend(f"  {name.ljust(width)}  {value:,}" for name, value in counters.items())
    else:
        lines.append("  (none)")
    latency = session.metrics.histogram_summary("span.sweep.seconds")
    if latency.get("count"):
        lines.append("")
        lines.append(
            "Sweep latency: p50 {p50:.6f}s  p99 {p99:.6f}s over {count} sweeps".format(
                **latency
            )
        )
    return lines


def _check_drift(session, args, grid) -> "object":
    """Run the drift detector matching the traced configuration."""
    from repro.observe import dimtree_drift, fused_drift, parallel_words_drift

    shape = tuple(args.shape)
    if args.procs > 0:
        return parallel_words_drift(
            session, shape, args.rank, grid, kernel=args.kernel
        )
    if args.kernel in ("dimtree", "msdt"):
        return dimtree_drift(session, shape, args.rank, kernel=args.kernel)
    return fused_drift(session, shape, args.rank)


def trace_report_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``trace-report`` subcommand."""
    args = build_trace_report_parser().parse_args(argv)
    if args.sweeps < 1:
        print("trace-report: --sweeps must be at least 1", file=sys.stderr)
        return 2
    if args.kernel == "msdt" and args.procs > 0:
        print("trace-report: --kernel msdt runs sequentially only (--procs 0)", file=sys.stderr)
        return 2
    session, grid = _traced_run(args)

    sections = [_phase_table(session)]
    sections.extend(_summary_lines(session))

    if args.export_trace:
        from repro.observe import write_chrome_trace

        write_chrome_trace(session, args.export_trace)
        sections.append(f"wrote Chrome trace to {args.export_trace}")
    if args.export_metrics:
        from repro.observe import write_metrics_snapshot

        write_metrics_snapshot(session, args.export_metrics)
        sections.append(f"wrote metrics snapshot to {args.export_metrics}")

    exit_code = 0
    if args.check_drift:
        report = _check_drift(session, args, grid)
        label = "parallel words" if args.procs > 0 else "flops/words"
        if report.ok:
            sections.append(
                f"drift check ({report.kernel}, {label}): OK — "
                f"{len(report.records)} quantities match the model exactly"
            )
        else:
            exit_code = 1
            sections.append(f"drift check ({report.kernel}, {label}): FAILED")
            sections.extend(
                "  " + json.dumps(record.to_dict(), sort_keys=True)
                for record in report.drifted()
            )

    text = "\n".join(sections) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote report to {args.output}")
    else:
        sys.stdout.write(text)
    return exit_code
