"""Benchmark / reproduction harness for experiment ``tab-cp-als``.

The CP-ALS workload that motivates MTTKRP (Section II-A): recovery quality and
runtime of sequential CP-ALS, the per-iteration communication of CP-ALS with
every MTTKRP executed on the simulated distributed machine, and the
dimension-tree frontier: measured (counted, not timed) per-sweep speedup of
the ``"dimtree"`` kernel over ``N`` independent per-mode kernels across
``(N, I, R)``, plus the fused ``"sampled-dimtree"`` frontier (ISSUE 5):
per-sweep counted flops/words of the fused kernel against both the exact
tree and the per-call sampled baseline, with its parallel ledgers
reconciled against ``predicted_sampled_dimtree_ledger``, recorded as
deterministic JSON
(``benchmarks/als_dimtree_frontier.json``, override with the
``ALS_DIMTREE_FRONTIER_JSON`` environment variable).  Every recorded value is
a flop/word count, an exact ratio of counts, or a seeded-run boolean — no
wall clock — so the file reproduces byte for byte.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import emit
from repro.bounds.parallel import combined_parallel_lower_bound
from repro.core.dimtree import DimensionTreeKernel
from repro.core.sampled_dimtree import SampledDimtreeKernel
from repro.costmodel import (
    dimtree_crossover_rank,
    dimtree_vs_independent,
    sampled_dimtree_sweep_cost,
    sampled_tree_sweep_cost,
    three_way_crossover,
)
from repro.cp.als import cp_als
from repro.cp.parallel_als import parallel_cp_als
from repro.observe import hit_rate, tracing
from repro.parallel.dimtree import (
    predicted_dimtree_ledger,
    predicted_dimtree_sweep_words,
)
from repro.sketch.parallel.sampled_dimtree import predicted_sampled_dimtree_ledger
from repro.tensor.random import noisy_low_rank_tensor


def test_cp_als_recovery(benchmark):
    """Sequential CP-ALS recovery of a noisy rank-4 tensor."""
    tensor = noisy_low_rank_tensor((20, 18, 16), 4, noise_level=0.01, seed=0)
    result = benchmark.pedantic(
        cp_als,
        args=(tensor, 4),
        kwargs={"n_iter_max": 60, "tol": 1e-9, "seed": 1},
        rounds=1,
        iterations=1,
    )
    emit(
        "CP-ALS recovery (20x18x16, rank 4, 1% noise)",
        f"  iterations: {result.n_iterations}\n  final fit : {result.final_fit:.5f}",
    )
    assert result.final_fit > 0.98
    benchmark.extra_info["final_fit"] = round(result.final_fit, 5)


def test_cp_als_iteration_runtime(benchmark):
    """Wall-clock of one ALS sweep on a moderate dense tensor (engineering metric)."""
    tensor = noisy_low_rank_tensor((24, 24, 24), 6, noise_level=0.05, seed=2)
    benchmark(cp_als, tensor, 6, n_iter_max=2, tol=0.0, seed=3)


def test_parallel_cp_als_communication(benchmark):
    """Per-iteration MTTKRP communication of simulated-parallel CP-ALS vs the bound."""
    shape, rank, n_procs = (16, 16, 16), 4, 8
    tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.01, seed=4)
    result = benchmark.pedantic(
        parallel_cp_als,
        args=(tensor, rank, n_procs),
        kwargs={"n_iter_max": 40, "tol": 1e-10, "seed": 5},
        rounds=1,
        iterations=1,
    )
    per_iter = result.words_per_iteration[0]
    bound = combined_parallel_lower_bound(shape, rank, n_procs).combined
    emit(
        "Simulated-parallel CP-ALS (P = 8, Algorithm 3)",
        f"  words/processor/iteration : {per_iter:,}\n"
        f"  single-MTTKRP lower bound : {bound:.0f}\n"
        f"  final fit                 : {result.als.final_fit:.5f}",
    )
    # one sweep = N MTTKRPs, so the per-iteration traffic is at least N/2 bounds' worth
    assert 2 * per_iter >= bound
    assert result.als.final_fit > 0.9
    benchmark.extra_info["words_per_iteration"] = per_iter


# ---------------------------------------------------------------------------
# dimension-tree frontier (ISSUE 4)
# ---------------------------------------------------------------------------

#: (shape, rank) sweep across mode counts N, extents I, and ranks R.  The
#: lopsided (2, 4, 100) case sits past its finite word-crossover rank — it is
#: recorded to pin the trade-off (flops still win, words do not).
FRONTIER_CASES = [
    ((10, 10, 10), 2),
    ((10, 10, 10), 6),
    ((16, 12, 8), 4),
    ((2, 4, 100), 3),
    ((8, 7, 6, 5), 3),
    ((10, 10, 10, 10), 4),
    ((6, 5, 4, 3, 4), 2),
]

#: (shape, rank, P) cases for the measured parallel ledger reconciliation.
PARALLEL_CASES = [
    ((12, 10, 8), 3, 8),
    ((16, 16, 16), 4, 8),
    ((6, 5, 4, 5), 2, 6),
]

FRONTIER_SWEEPS = 4


def _sequential_row(shape, rank, seed):
    tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=seed)
    einsum_run = cp_als(
        tensor, rank, n_iter_max=FRONTIER_SWEEPS, tol=0.0, seed=seed + 1, kernel="einsum"
    )
    tree_kernel = DimensionTreeKernel()
    tree_run = cp_als(
        tensor, rank, n_iter_max=FRONTIER_SWEEPS, tol=0.0, seed=seed + 1, kernel=tree_kernel
    )
    chain_kernel = DimensionTreeKernel(cache=False)
    cp_als(
        tensor, rank, n_iter_max=FRONTIER_SWEEPS, tol=0.0, seed=seed + 1, kernel=chain_kernel
    )
    tree_sweep = tree_kernel.per_sweep_costs()[-1]
    chain_sweep = chain_kernel.per_sweep_costs()[-1]
    model = dimtree_vs_independent(shape, rank)
    # measured == modelled, exactly: the model replays the engine's schedule
    assert tree_sweep.to_dict() == model["dimtree"]
    assert chain_sweep.to_dict() == model["independent"]
    fit_gap = max(abs(a - b) for a, b in zip(einsum_run.fits, tree_run.fits))
    crossover = dimtree_crossover_rank(shape)
    return {
        "shape": list(shape),
        "rank": rank,
        "n_modes": len(shape),
        "dimtree_sweep": tree_sweep.to_dict(),
        "independent_sweep": chain_sweep.to_dict(),
        "flop_speedup": chain_sweep.flops / tree_sweep.flops,
        "word_ratio": tree_sweep.words / chain_sweep.words,
        "crossover_rank": None if crossover == float("inf") else crossover,
        "fit_matches_einsum_1e10": bool(fit_gap <= 1e-10),
    }


def _parallel_row(shape, rank, n_procs, seed):
    tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=seed)
    exact = parallel_cp_als(
        tensor, rank, n_procs, n_iter_max=FRONTIER_SWEEPS, tol=0.0, seed=seed + 1,
        kernel="exact",
    )
    tree = parallel_cp_als(
        tensor, rank, n_procs, n_iter_max=FRONTIER_SWEEPS, tol=0.0, seed=seed + 1,
        kernel="dimtree",
    )
    grid = tree.grids[0]
    predicted = predicted_dimtree_ledger(shape, rank, grid, FRONTIER_SWEEPS)
    # the machine ledger meets the collective-replay predictor word for word
    assert np.array_equal(tree.machine.words_sent, predicted)
    assert np.array_equal(tree.machine.words_received, predicted)
    fit_gap = max(abs(a - b) for a, b in zip(exact.als.fits, tree.als.fits))
    return {
        "shape": list(shape),
        "rank": rank,
        "n_procs": n_procs,
        "grid": list(grid),
        "measured_total_words": int(tree.total_words),
        "predicted_total_words": int(predicted.max()),
        "steady_sweep_words": int(tree.words_per_iteration[-1]),
        "modelled_steady_sweep_words": predicted_dimtree_sweep_words(shape, rank, grid),
        "first_sweep_words": int(tree.words_per_iteration[0]),
        "exact_steady_sweep_words": int(exact.words_per_iteration[-1]),
        "fit_matches_exact_1e10": bool(fit_gap <= 1e-10),
    }


#: (shape, rank, draws) cases of the fused sampled-dimtree frontier (ISSUE 5).
#: Across these rows the product-leverage fused sweep undercuts both the
#: exact tree and the per-call sampled baseline; the tree-leverage variant's
#: per-draw descent arithmetic keeps it above the exact tree (it still beats
#: the per-call baseline once draws amortize the root contraction, e.g. the
#: (16, 16, 16) rows) — the recorded faces of the three-way crossover.
FUSED_CASES = [
    ((10, 10, 10), 3, 16),
    ((16, 16, 16), 4, 64),
    ((16, 16, 16), 4, 128),
    ((20, 20, 20), 4, 64),
    ((24, 20, 16), 4, 96),
]

#: Sweeps per fused run: enough for the residual gate to see converged
#: factors on the winning cases.
FUSED_SWEEPS = 12

#: Residual-gate tolerance of the recorded gated runs.
FUSED_RESIDUAL_TOL = 0.05


def _fused_engine_sweep(tensor, rank, draws, seed, **kernel_kwargs):
    """Last-sweep counted cost (and run) of one fused-kernel configuration."""
    kernel = SampledDimtreeKernel(n_samples=draws, seed=seed + 17, **kernel_kwargs)
    run = cp_als(
        tensor, rank, n_iter_max=FUSED_SWEEPS, tol=0.0, seed=seed + 1, kernel=kernel
    )
    return kernel, run, kernel.per_sweep_costs()[-1]


def _fused_row(shape, rank, draws, seed):
    tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.01, seed=seed)
    n_modes = len(shape)

    tree_kernel = DimensionTreeKernel()
    exact_run = cp_als(
        tensor, rank, n_iter_max=FUSED_SWEEPS, tol=0.0, seed=seed + 1,
        kernel=tree_kernel,
    )
    dimtree = tree_kernel.per_sweep_costs()[-1]

    # The residual-gated *exact* engine on the same converging run: the
    # ISSUE-5 witness that gating drops full-tensor contractions per sweep
    # below 2 without degrading the final fit beyond the tolerance.
    gated_kernel = DimensionTreeKernel(
        invalidation="residual", residual_tol=FUSED_RESIDUAL_TOL
    )
    gated_run = cp_als(
        tensor, rank, n_iter_max=FUSED_SWEEPS, tol=0.0, seed=seed + 1,
        kernel=gated_kernel,
    )
    gated_roots = [s.root_reads for s in gated_kernel.per_sweep_costs()]
    dimtree_residual = {
        "root_reads_per_sweep": gated_roots,
        "skipped_invalidations": int(gated_kernel.tree.skipped_invalidations),
        "late_sweeps_below_two": bool(
            min(gated_roots[FUSED_SWEEPS // 2 :]) < 2
        ),
        "fit_gap_within_tol": bool(
            abs(gated_run.final_fit - exact_run.final_fit) <= FUSED_RESIDUAL_TOL
        ),
    }

    base_kernel, _, baseline = _fused_engine_sweep(
        tensor, rank, draws, seed, cache=False
    )
    base_distinct = [r.n_distinct for r in base_kernel.draw_log[-n_modes:]]
    # counted == modelled, exactly: the replay walks the same schedule
    assert baseline.to_dict() == sampled_tree_sweep_cost(
        shape, rank, draws, base_distinct
    ).to_dict()

    fused_rows = {}
    for label, kwargs in (
        ("tree-leverage", {}),
        ("product-leverage", {"distribution": "product-leverage"}),
        (
            "tree-leverage-residual",
            {"invalidation": "residual", "residual_tol": FUSED_RESIDUAL_TOL},
        ),
    ):
        kernel, run, sweep = _fused_engine_sweep(tensor, rank, draws, seed, **kwargs)
        if "residual" not in label:
            distinct = [r.n_distinct for r in kernel.draw_log[-n_modes:]]
            assert sweep.to_dict() == sampled_dimtree_sweep_cost(
                shape, rank, draws, distinct,
                distribution=kwargs.get("distribution", "tree-leverage"),
            ).to_dict()
        fused_rows[label] = {
            "flops": sweep.flops,
            "words": sweep.words,
            "root_reads": sweep.root_reads,
            "distinct_rows": sweep.distinct_rows,
            "beats_dimtree": bool(
                sweep.flops < dimtree.flops and sweep.words < dimtree.words
            ),
            "beats_sampled_tree": bool(
                sweep.flops < baseline.flops and sweep.words < baseline.words
            ),
        }
        if "residual" in label:
            fused_rows[label]["root_reads_per_sweep"] = [
                s.root_reads for s in kernel.per_sweep_costs()
            ]
            fused_rows[label]["skipped_invalidations"] = int(
                kernel.tree.skipped_invalidations
            )
    return {
        "shape": list(shape),
        "rank": rank,
        "n_draws": draws,
        "dimtree_sweep": {"flops": dimtree.flops, "words": dimtree.words},
        "dimtree_residual": dimtree_residual,
        "sampled_tree_sweep": {"flops": baseline.flops, "words": baseline.words},
        "fused": fused_rows,
    }


def _fused_parallel_row(shape, rank, n_procs, draws, seed):
    tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.02, seed=seed)
    run = parallel_cp_als(
        tensor, rank, n_procs, kernel="sampled-dimtree", n_samples=draws,
        n_iter_max=FRONTIER_SWEEPS, tol=0.0, seed=seed + 1,
    )
    grid = run.grids[0]
    predicted = predicted_sampled_dimtree_ledger(shape, rank, grid, FRONTIER_SWEEPS)
    # the machine ledger meets the collective-replay predictor word for word
    assert np.array_equal(run.machine.words_sent, predicted)
    assert np.array_equal(run.machine.words_received, predicted)
    return {
        "shape": list(shape),
        "rank": rank,
        "n_procs": n_procs,
        "n_draws": draws,
        "grid": list(grid),
        "measured_total_words": int(run.total_words),
        "predicted_total_words": int(predicted.max()),
        "dimtree_predicted_total_words": int(
            predicted_dimtree_ledger(shape, rank, grid, FRONTIER_SWEEPS).max()
        ),
    }


@pytest.fixture(scope="module")
def dimtree_frontier(request):
    seed = int(request.config.getoption("--seed"))
    rows = [_sequential_row(shape, rank, seed) for shape, rank in FRONTIER_CASES]
    parallel_rows = [
        _parallel_row(shape, rank, n_procs, seed) for shape, rank, n_procs in PARALLEL_CASES
    ]
    fused_rows = [
        _fused_row(shape, rank, draws, seed) for shape, rank, draws in FUSED_CASES
    ]
    fused_parallel_rows = [
        _fused_parallel_row(shape, rank, n_procs, 32, seed)
        for shape, rank, n_procs in PARALLEL_CASES
    ]
    fused_model = three_way_crossover((16, 16, 16), [2, 4, 8], [8, 32, 128])
    return {
        "sweeps_per_run": FRONTIER_SWEEPS,
        "counting": "2*T*R flops and (partial-in + factor + partial-out) words "
        "per single-mode contraction; steady-state sweep",
        "rows": rows,
        "parallel_rows": parallel_rows,
        "fused_sweeps_per_run": FUSED_SWEEPS,
        "fused_residual_tol": FUSED_RESIDUAL_TOL,
        "fused_rows": fused_rows,
        "fused_parallel_rows": fused_parallel_rows,
        "fused_model_crossover": fused_model,
    }


# ---------------------------------------------------------------------------
# traced sweep-latency / cache-hit-rate record (ISSUE 6)
# ---------------------------------------------------------------------------

#: (kernel name, shape, rank) cases of the traced timing record.
TIMING_CASES = [
    ("dimtree", (24, 24, 24), 6),
    ("sampled-dimtree", (24, 24, 24), 6),
]

TIMING_SWEEPS = 6


def _traced_timing_row(kernel_name, shape, rank, seed):
    """One traced ALS run: sweep-latency percentiles beside cache hit rates."""
    tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.05, seed=seed)
    if kernel_name == "dimtree":
        kernel = DimensionTreeKernel()
    else:
        kernel = SampledDimtreeKernel(n_samples=64, seed=seed + 17)
    with tracing() as session:
        cp_als(
            tensor, rank, n_iter_max=TIMING_SWEEPS, tol=0.0, seed=seed + 1,
            kernel=kernel,
        )
    counters = session.metrics.counters()
    latency = session.metrics.histogram_summary("span.sweep.seconds")
    partial_hits = counters.get("dimtree.partial.hit", 0)
    partial_rebuilds = counters.get("dimtree.partial.miss", 0) + counters.get(
        "dimtree.partial.stale", 0
    )
    row = {
        "kernel": kernel_name,
        "shape": list(shape),
        "rank": rank,
        "sweeps": TIMING_SWEEPS,
        "sweep_seconds_p50": latency["p50"],
        "sweep_seconds_p99": latency["p99"],
        "partial_contraction_hit_rate": hit_rate(partial_hits, partial_rebuilds),
        "cache_counters": {
            name: value
            for name, value in counters.items()
            if name.startswith(("dimtree.partial", "factor_gate", "sampler_cache"))
        },
    }
    if kernel_name == "sampled-dimtree":
        row["sampler_cache_hit_rate"] = hit_rate(
            counters.get("sampler_cache.hit", 0),
            counters.get("sampler_cache.rebuild", 0),
        )
    return row


def test_als_dimtree_timing_json():
    """Record traced sweep latency + cache hit rates as a *timed* JSON.

    Unlike the frontier record this file contains wall-clock percentiles, so
    it is NOT byte-checked in CI and is gitignored
    (``benchmarks/als_dimtree_timing.json``, override with the
    ``ALS_DIMTREE_TIMING_JSON`` environment variable).  The cache-hit-rate
    columns are deterministic; only the latency columns vary run to run.
    """
    rows = [
        _traced_timing_row(kernel_name, shape, rank, seed=2)
        for kernel_name, shape, rank in TIMING_CASES
    ]
    target = Path(
        os.environ.get(
            "ALS_DIMTREE_TIMING_JSON",
            Path(__file__).parent / "als_dimtree_timing.json",
        )
    )
    payload = {
        "note": "timed record (wall-clock percentiles): not byte-checked in CI",
        "sweeps_per_run": TIMING_SWEEPS,
        "rows": rows,
    }
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    emit(
        "traced ALS sweep latency + cache hit rates",
        "\n".join(
            f"  {row['kernel']:>16} p50 {row['sweep_seconds_p50']:.6f}s "
            f"p99 {row['sweep_seconds_p99']:.6f}s "
            f"partial-hit-rate {row['partial_contraction_hit_rate']:.3f}"
            for row in rows
        ),
    )
    for row in rows:
        assert row["sweep_seconds_p50"] > 0.0
        assert 0.0 <= row["partial_contraction_hit_rate"] <= 1.0
    assert rows[1]["sampler_cache_hit_rate"] > 0.0


def test_cp_als_dimtree_sweep_runtime(benchmark):
    """Wall-clock of dimtree-kernel ALS sweeps (engineering metric, not recorded)."""
    tensor = noisy_low_rank_tensor((24, 24, 24), 6, noise_level=0.05, seed=2)
    benchmark(cp_als, tensor, 6, n_iter_max=2, tol=0.0, seed=3, kernel="dimtree")


def test_als_dimtree_frontier_json(dimtree_frontier):
    """Record the measured dimtree-vs-independent frontier as deterministic JSON."""
    target = Path(
        os.environ.get(
            "ALS_DIMTREE_FRONTIER_JSON",
            Path(__file__).parent / "als_dimtree_frontier.json",
        )
    )
    target.write_text(
        json.dumps(dimtree_frontier, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    lines = [
        f"  {str(tuple(row['shape'])):>18} R={row['rank']:<2} "
        f"flops {row['dimtree_sweep']['flops']:>9,} vs {row['independent_sweep']['flops']:>9,} "
        f"speedup {row['flop_speedup']:.3f}  root reads {row['dimtree_sweep']['root_reads']} "
        f"vs {row['independent_sweep']['root_reads']}"
        for row in dimtree_frontier["rows"]
    ]
    emit("dimtree ALS frontier (counted per-sweep MTTKRP cost)", "\n".join(lines))
    fused_lines = []
    for row in dimtree_frontier["fused_rows"]:
        pl = row["fused"]["product-leverage"]
        fused_lines.append(
            f"  {str(tuple(row['shape'])):>14} R={row['rank']:<2} D={row['n_draws']:<4}"
            f" fused {pl['flops']:>8,}/{pl['words']:>7,}"
            f" dimtree {row['dimtree_sweep']['flops']:>8,}/{row['dimtree_sweep']['words']:>7,}"
            f" sampled-tree {row['sampled_tree_sweep']['flops']:>8,}/{row['sampled_tree_sweep']['words']:>7,}"
            f"  wins both: {pl['beats_dimtree'] and pl['beats_sampled_tree']}"
        )
    emit(
        "fused sampled-dimtree frontier (flops/words per steady sweep, "
        "product-leverage fused column)",
        "\n".join(fused_lines),
    )
    assert json.loads(target.read_text(encoding="utf-8"))["rows"]


def test_dimtree_frontier_acceptance(dimtree_frontier):
    """ISSUE 4 acceptance on the recorded frontier.

    For every ``N >= 3`` case the counted per-sweep flops fall strictly below
    ``N`` independent kernels, the modelled sweep cost matched the counted
    ledger exactly (asserted at record time), and the dimtree fits track the
    einsum kernel to 1e-10; the parallel rows' ledgers met the
    collective-replay predictor word for word, with the steady sweep moving
    strictly fewer words than the exact kernel.
    """
    assert dimtree_frontier["rows"], "frontier recorded no rows"
    for row in dimtree_frontier["rows"]:
        assert row["fit_matches_einsum_1e10"]
        if row["n_modes"] >= 3:
            assert row["dimtree_sweep"]["flops"] < row["independent_sweep"]["flops"]
            assert row["dimtree_sweep"]["root_reads"] == 2
            assert row["independent_sweep"]["root_reads"] == row["n_modes"]
    for row in dimtree_frontier["parallel_rows"]:
        assert row["fit_matches_exact_1e10"]
        assert row["measured_total_words"] == row["predicted_total_words"]
        assert row["steady_sweep_words"] == row["modelled_steady_sweep_words"]
        assert row["steady_sweep_words"] < row["exact_steady_sweep_words"]


def test_fused_frontier_acceptance(dimtree_frontier):
    """ISSUE 5 acceptance on the recorded fused frontier.

    At least one (N, I, R, draws) row's fused sweep counts strictly below
    *both* the exact ``"dimtree"`` sweep and the per-call ``"sampled-tree"``
    sweep on flops and words at once; every exact-mode fused row's counted
    ledger matched its symbolic replay (asserted at record time); and every
    fused parallel ledger met the collective-replay predictor word for word.
    """
    rows = dimtree_frontier["fused_rows"]
    assert rows, "fused frontier recorded no rows"
    wins = [
        row
        for row in rows
        for variant in row["fused"].values()
        if variant["beats_dimtree"] and variant["beats_sampled_tree"]
    ]
    assert wins, "no fused row beat both engines on flops and words"
    # the residual-gated exact engine drops full-tensor contractions per
    # sweep below 2 on a converging run (late sweeps, where the factors have
    # settled) without degrading the final fit beyond the tolerance
    gated_witnesses = [
        row
        for row in rows
        if row["dimtree_residual"]["late_sweeps_below_two"]
        and row["dimtree_residual"]["fit_gap_within_tol"]
        and row["dimtree_residual"]["skipped_invalidations"] > 0
    ]
    assert gated_witnesses, "no row witnessed residual gating below 2 roots/sweep"
    for row in dimtree_frontier["fused_parallel_rows"]:
        assert row["measured_total_words"] == row["predicted_total_words"]
