"""Timed dense MTTKRP kernel races: einsum vs. blocked vs. dense.

Records ``benchmarks/BENCH_kernels_timed.json`` (a *timed* record like
``als_dimtree_timing.json``: wall-clock numbers vary run to run, so the file
is gitignored and never byte-checked in CI).  Each row races, in every mode,
the monolithic einsum kernel, the cache-blocked tiled GEMM of
:mod:`repro.core.blocked_mttkrp` (at every requested thread count) and the
dense rule :func:`repro.core.kernels.dense_mttkrp` (``dense``, the local step
of Algorithms 2-4), recording one entry per (row, mode).  Every candidate takes the median of at least three
repetitions (:func:`repro.observe.median_time`) with per-repetition p50/p99
sourced from the tracer's span histograms.  No wall-clock model predicts
these winners: the tile sizes come from the machine model of
:mod:`repro.sequential.block_size`, and ``dense`` is a fixed rule of shape,
mode, rank and memory layout.  The run asserts:

* at least one entry has the blocked kernel beating einsum,
* ``dense`` counts its GEMM in mode 0 and einsum in every other mode (on
  every row einsum's path copies the tensor in mode 0 only), and beats
  einsum in mode 0 of ``dense-large-lowR``, where that copy is the whole
  tensor transposed, and
* when some raced row ran a thread count above 1, at least one such row has
  a threaded candidate beating serial execution.  Only ``dense-threaded``
  races threads, and it needs two cores to be decisive, so on a
  single-core machine it is skipped and recorded with a reason, and in
  quick mode it is not run.

The summary printed before the assertions reports the outcome of each
claim.

Environment knobs (CI-friendly, mirroring the other benchmarks' style):

``BENCH_KERNELS_QUICK=1``
    Run only the two serial quick rows, ``dense-large-lowR`` and
    ``dense-tiny-tiles``.
``BENCH_KERNELS_TIMED_JSON=/path/to.json``
    Output path override.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from conftest import emit
from repro.backend.parallel import effective_cpu_count
from repro.core.blocked_mttkrp import blocked_mttkrp
from repro.core.kernels import dense_mttkrp, mttkrp
from repro.observe.tracer import median_time, trace, tracing
from repro.tensor.random import random_factors

REPEATS = 3

#: name, shape, rank, forced tiles (int or None for the machine model's
#: choice), blocked-kernel thread counts to race, minimum cores the row needs.
DENSE_CASES = [
    # Big tensor at low rank: in mode 0 the einsum path copies the whole
    # tensor transposed, and dense's one GEMM of the free unfolding (and the
    # tiled GEMM) beat it; in modes 1 and 2 einsum starts with a GEMM
    # against mode 0 and dense returns its bytes.
    ("dense-large-lowR", (300, 300, 300), 16, None, (1,), 1),
    # Deliberately tiny forced tiles: a thousand tile iterations of Python
    # overhead — the blocked kernel loses every mode decisively.
    ("dense-tiny-tiles", (80, 80, 80), 32, 8, (1,), 1),
    # The blocked win re-raced with 2 threads over disjoint output-row
    # tiles: pure parallel speedup, decisive only with real cores.
    ("dense-threaded", (300, 300, 300), 16, None, (1, 2), 2),
]

QUICK_CASE_NAMES = ("dense-large-lowR", "dense-tiny-tiles")


def _race(candidates, rtol, atol):
    """Median-time every candidate once warmed; cross-check the results."""
    measured = {}
    percentiles = {}
    reference = None
    with tracing() as session:
        for label, fn in candidates.items():
            # Warm once outside the timed repetitions (einsum path planning,
            # executor start) so the medians time the steady state.
            warm = fn()
            if reference is None:
                reference = warm
            else:
                np.testing.assert_allclose(warm, reference, atol=atol, rtol=rtol)

            def traced(label=label, fn=fn):
                with trace(label):
                    return fn()

            seconds, _ = median_time(traced, repeats=REPEATS)
            measured[label] = seconds
            summary = session.metrics.histogram_summary(f"span.{label}.seconds")
            percentiles[label] = {"p50": summary["p50"], "p99": summary["p99"]}
    return measured, percentiles


def _race_dense_row(name, shape, rank, tiles, threads_options, seed):
    """One entry per mode: einsum, blocked at each thread count, and dense."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    factors = random_factors(shape, rank, seed=seed + 1)

    entries = []
    for mode in range(len(shape)):
        candidates = {"einsum": lambda m=mode: mttkrp(data, factors, m)}
        for threads in threads_options:
            candidates[f"blocked:t{threads}"] = (
                lambda t=threads, m=mode: blocked_mttkrp(
                    data, factors, m, tiles=tiles, threads=t
                )
            )
        candidates["dense"] = lambda m=mode: dense_mttkrp(data, factors, m)

        # The blocked kernel and dense's GEMM reassociate the sums, so
        # cross-check with a reassociation-sized tolerance (the bitwise
        # contracts are covered by the unit tests).
        measured, percentiles = _race(candidates, rtol=1e-9, atol=1e-8)
        with tracing() as session:
            dense_mttkrp(data, factors, mode)
        dispatch = {
            path: session.metrics.counter(f"dense_dispatch.{path}")
            for path in ("gemm", "einsum")
        }
        entries.append(
            {
                "kind": "dense",
                "case": name,
                "mode": mode,
                "shape": list(shape),
                "rank": rank,
                "tiles": tiles,
                "threads_options": list(threads_options),
                "median_seconds": measured,
                "span_percentiles": percentiles,
                "measured_winner": min(measured, key=measured.get),
                "dense_dispatch": dispatch,
            }
        )
    return entries


def _winner_threads(label):
    """Thread count encoded in a timing label (1 for serial labels)."""
    if ":t" in label:
        return int(label.rsplit(":t", 1)[1])
    return 1


def test_bench_kernels_timed_json():
    """Race the kernels, record the JSON, and check the recorded winners."""
    quick = os.environ.get("BENCH_KERNELS_QUICK", "") not in ("", "0")
    cores = effective_cpu_count()

    rows = []
    skipped_rows = []
    for name, shape, rank, tiles, threads_options, min_cores in DENSE_CASES:
        if quick and name not in QUICK_CASE_NAMES:
            continue
        if cores < min_cores:
            skipped_rows.append(
                {"case": name, "reason": f"needs >= {min_cores} cores, have {cores}"}
            )
            continue
        rows.extend(_race_dense_row(name, shape, rank, tiles, threads_options, seed=7))

    target = Path(
        os.environ.get(
            "BENCH_KERNELS_TIMED_JSON",
            Path(__file__).parent / "BENCH_kernels_timed.json",
        )
    )
    payload = {
        "note": "timed record (wall-clock medians): not byte-checked in CI",
        "repeats": REPEATS,
        "quick": quick,
        "cpu_count": cores,
        "rows": rows,
        "skipped_rows": skipped_rows,
    }
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    blocked_wins = [
        f"{row['case']}/mode{row['mode']}"
        for row in rows
        if min(
            seconds
            for label, seconds in row["median_seconds"].items()
            if label.startswith("blocked:")
        )
        < row["median_seconds"]["einsum"]
    ]
    low_rank_mode0 = next(
        row for row in rows if row["case"] == "dense-large-lowR" and row["mode"] == 0
    )
    threaded_rows = [row for row in rows if max(row["threads_options"]) > 1]

    lines = []
    for row in rows:
        timing = "  ".join(
            f"{label} {seconds * 1e3:9.3f}ms" for label, seconds in row["median_seconds"].items()
        )
        dense_path = "gemm" if row["dense_dispatch"]["gemm"] else "einsum"
        lines.append(
            f"  {row['case'] + '/mode' + str(row['mode']):>20} {timing}"
            f"  winner={row['measured_winner']} (dense ran {dense_path})"
        )
    for row in skipped_rows:
        lines.append(f"  {row['case']:>20} skipped: {row['reason']}")
    lines.append(f"  blocked beats einsum on: {', '.join(blocked_wins) or 'no dense entry'}")
    lines.append(
        "  dense beats einsum in dense-large-lowR/mode0: "
        f"{low_rank_mode0['median_seconds']['dense'] < low_rank_mode0['median_seconds']['einsum']}"
    )
    emit("timed MTTKRP kernel races", "\n".join(lines))

    # The blocked dense kernel must beat einsum somewhere.
    assert blocked_wins, "no recorded configuration where the blocked dense kernel wins"
    # dense runs its GEMM in mode 0 only, and there it beats einsum.
    for row in rows:
        expected = {"gemm": 1, "einsum": 0} if row["mode"] == 0 else {"gemm": 0, "einsum": 1}
        assert row["dense_dispatch"] == expected, (row["case"], row["mode"])
    assert (
        low_rank_mode0["median_seconds"]["dense"] < low_rank_mode0["median_seconds"]["einsum"]
    ), "dense does not beat einsum in mode 0 of dense-large-lowR"
    # Only a row that raced a threaded candidate can show threads winning;
    # the one such row is skipped on a single core and not run in quick mode.
    if threaded_rows:
        assert any(
            _winner_threads(row["measured_winner"]) > 1 for row in threaded_rows
        ), "no recorded row where threads > 1 wins"
