"""Experiment ``sketch-parallel``: measured distributed sampled-MTTKRP frontier.

PR 1's ``sketch-crossover`` experiment measured the sampled kernel's
*accuracy* frontier but could only *model* its communication; this harness
runs the distributed sampled MTTKRP of :mod:`repro.sketch.parallel` on the
simulated machine and reports, per processor count, draw count, and sampling
strategy (the score-gather ``product-leverage`` setup, the factor-gather
``leverage`` setup, and the Gram-All-Reduce-only ``tree-leverage`` sampler),
the words the per-rank ledger actually recorded:

* **measured** words (setup + kernel phases) and the exact collective-replay
  prediction they must equal;
* the closed-form sampled model and the **exact** Algorithm 3 baseline
  (measured on its own best grid) — sampling wins when measured words fall
  strictly below the exact words;
* the paper's combined **parallel lower bound** — below it, the sampled run
  moves fewer words per processor than any exact MTTKRP is allowed to;
* the relative error of the estimate, the resource being traded.

The same rows back the JSON frontier recorded by
``benchmarks/bench_sketch_parallel.py``; all quantities are deterministic
counts and ratios (no wall-clock), so the frontier is reproducible across
machines from its seeds.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.report import format_table
from repro.experiments.sketch_crossover import coherent_problem
from repro.sketch.parallel.reconcile import (
    ReconciledSampledRun,
    reconcile_sampled_mttkrp,
)
from repro.utils.validation import check_mode, check_rank, check_shape

#: Default seeded problem (smaller than sketch-crossover's: every point runs
#: a full simulated machine).
DEFAULT_SHAPE = (24, 20, 16)
DEFAULT_RANK = 6
DEFAULT_MODE = 0
DEFAULT_COHERENCE = 10.0
#: The strong-scaling axis: the toy counts (4-12) where the output
#: Reduce-Scatter dominates every point, extended (24, 48 — the PR-2
#: follow-up) into the regime where the per-rank output piece has shrunk
#: and the draw-dependent sampled-row All-Gathers take over the kernel
#: phase.
DEFAULT_PROCESSOR_COUNTS = (4, 8, 12, 24, 48)
DEFAULT_DRAW_COUNTS = (8, 32, 128)
#: Strategies swept per (P, draws) point: the three leverage-family setups —
#: score-gather ("product-leverage"), full factor gather ("leverage"), and
#: the Gram-All-Reduce-only tree sampler — so the setup-cost elimination is
#: measured column against column.
DEFAULT_DISTRIBUTIONS = ("product-leverage", "leverage", "tree-leverage")


def sketch_parallel_rows(
    shape: Sequence[int] = DEFAULT_SHAPE,
    rank: int = DEFAULT_RANK,
    *,
    mode: int = DEFAULT_MODE,
    processor_counts: Sequence[int] = DEFAULT_PROCESSOR_COUNTS,
    draw_counts: Sequence[int] = DEFAULT_DRAW_COUNTS,
    distributions: Sequence[str] = DEFAULT_DISTRIBUTIONS,
    coherence: float = DEFAULT_COHERENCE,
    seed: int = 1,
    sample_seed: int = 7,
) -> List[ReconciledSampledRun]:
    """Reconcile the distributed sampled MTTKRP over a ``P`` x draws x strategy sweep.

    Every ``(P, draws)`` point draws with ``seed = sample_seed + index`` (a
    fixed offset per point) so the sweep is reproducible yet points are
    independent; the *same* point seed is reused across the swept
    distributions, so per-point columns face comparable draws and their
    setup-word columns differ only by strategy.
    """
    shape = check_shape(shape, min_ndim=2)
    rank = check_rank(rank)
    mode = check_mode(mode, len(shape))
    tensor, factors = coherent_problem(shape, rank, coherence=coherence, seed=seed)
    rows: List[ReconciledSampledRun] = []
    index = 0
    for n_procs in processor_counts:
        for n_draws in draw_counts:
            point_seed = sample_seed + index
            index += 1
            for distribution in distributions:
                rows.append(
                    reconcile_sampled_mttkrp(
                        tensor,
                        factors,
                        mode,
                        int(n_procs),
                        n_samples=int(n_draws),
                        distribution=distribution,
                        seed=point_seed,
                    )
                )
    return rows


def format_sketch_parallel_table(rows: Optional[List[ReconciledSampledRun]] = None) -> str:
    """Render the measured-vs-modelled frontier as a text table."""
    if rows is None:
        rows = sketch_parallel_rows()
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.n_procs,
                "x".join(str(g) for g in row.grid),
                row.distribution,
                row.n_draws,
                row.distinct_rows,
                row.measured_words,
                row.measured_setup_words,
                row.measured_kernel_words,
                row.predicted_words,
                row.exact_words_measured,
                row.lower_bound_words,
                row.rel_error,
                "yes" if row.beats_exact else "no",
            ]
        )
    return format_table(
        [
            "P",
            "grid",
            "distribution",
            "draws",
            "distinct rows",
            "measured words",
            "setup words",
            "kernel words",
            "predicted words",
            "exact words",
            "lower bound",
            "rel error",
            "beats exact",
        ],
        table_rows,
        title=(
            "Distributed sampled MTTKRP: measured per-rank words vs exact "
            "algorithm and parallel lower bound (coherent seeded problem)"
        ),
    )


def sketch_parallel_frontier(
    shape: Sequence[int] = DEFAULT_SHAPE,
    rank: int = DEFAULT_RANK,
    *,
    mode: int = DEFAULT_MODE,
    processor_counts: Sequence[int] = DEFAULT_PROCESSOR_COUNTS,
    draw_counts: Sequence[int] = DEFAULT_DRAW_COUNTS,
    distributions: Sequence[str] = DEFAULT_DISTRIBUTIONS,
    coherence: float = DEFAULT_COHERENCE,
    seed: int = 1,
    sample_seed: int = 7,
) -> dict:
    """JSON-serialisable measured frontier (recorded by ``bench_sketch_parallel``).

    Deterministic by construction: every value is a word count, a ratio, or
    an error derived from seeded draws — rerunning with the same seeds on any
    machine reproduces the file byte for byte.
    """
    rows = sketch_parallel_rows(
        shape,
        rank,
        mode=mode,
        processor_counts=processor_counts,
        draw_counts=draw_counts,
        distributions=distributions,
        coherence=coherence,
        seed=seed,
        sample_seed=sample_seed,
    )
    return {
        "problem": {
            "shape": list(check_shape(shape)),
            "rank": int(rank),
            "mode": int(mode),
            "coherence": float(coherence),
            "distributions": list(distributions),
            "seed": int(seed),
            "sample_seed": int(sample_seed),
            # Every row charges the setup collectives; the key keeps the
            # recorded frontier's bytes.
            "charge_setup": True,
        },
        "rows": [row.to_dict() for row in rows],
    }
