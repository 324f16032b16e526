"""Timed MTTKRP kernel races: sparse chunked vs. legacy, dense einsum vs. blocked vs. auto.

Records ``benchmarks/BENCH_kernels_timed.json`` (a *timed* record like
``als_dimtree_timing.json``: wall-clock numbers vary run to run, so the file
is gitignored and never byte-checked in CI).  Sparse rows race the unchunked
reference kernel against the chunked kernel (for the threaded rows, at every
requested thread count); dense rows race, in every mode, the monolithic
einsum kernel, the cache-blocked tiled GEMM of
:mod:`repro.core.blocked_mttkrp` (at every requested thread count) and the
``kernel="auto"`` rule :func:`repro.core.kernels.dense_mttkrp`, recording one
entry per (row, mode).  Every candidate takes the median of at least three
repetitions (:func:`repro.observe.median_time`) with per-repetition p50/p99
sourced from the tracer's span histograms.  No wall-clock model predicts
these winners: the chunk and tile sizes come from the machine model of
:mod:`repro.sequential.block_size`, and ``auto`` is a fixed rule of shape,
mode, rank and memory layout.  The run asserts:

* at least one sparse row has the chunked kernel beating ``np.add.at``,
* at least one dense entry has the blocked kernel beating einsum,
* ``auto`` counts its GEMM in mode 0 and einsum in every other mode (on
  both dense rows einsum's path copies the tensor in mode 0 only), and
  beats einsum in mode 0 of ``dense-large-lowR``, where that copy is the
  whole tensor transposed, and
* on a multi-core machine, at least one row has a threaded candidate
  beating serial execution.  On a single-core machine a threaded candidate
  can never genuinely win, so no threaded row is asserted there; rows that
  *need* real parallelism to be decisive are skipped and recorded with a
  reason.

The summary printed before the assertions reports the outcome of each dense
claim.

Environment knobs (CI-friendly, mirroring the other benchmarks' style):

``BENCH_KERNELS_QUICK=1``
    Run only the decisive quick rows (sparse chunked/unchunked wins, the two
    serial dense rows, one threaded-overhead row).
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
from repro.tensor.sparse import SparseTensor, sparse_mttkrp, sparse_mttkrp_unchunked

REPEATS = 3

#: Timing-table label of the legacy single-pass sparse kernel.
UNCHUNKED_LABEL = "unchunked"


def chunked_label(threads: int) -> str:
    """Timing-table label of the chunked sparse kernel at ``threads``."""
    return f"chunked:numpy:t{threads}" if threads > 1 else "chunked:numpy"


#: name, shape, nnz, rank, forced (nzchunk, rchunk) or None for the machine
#: model's choice, thread counts to race, minimum cores the row needs to be
#: decisive, and (in the comments) the regime the row demonstrates.
SPARSE_CASES = [
    # Large nonzero count at full rank: the dense (nnz, R) temporary of the
    # legacy path spills fast memory and buffered np.add.at crawls — the
    # regime the chunked kernel exists for.
    ("large-3way", (200, 200, 200), 200_000, 32, None, (1,), 1),
    # Tiny problem with deliberately tiny forced chunks: per-chunk Python
    # overhead dominates and the single-pass path wins.
    ("tiny-forced-chunks", (60, 60, 60), 2_000, 8, (64, 2), (1,), 1),
    # Wider-than-cache mid-rank sweep and a 4-way tensor, both on the machine
    # model's default chunks (full mode only).
    ("wide-3way", (300, 300, 300), 400_000, 16, None, (1,), 1),
    ("4way", (40, 40, 40, 40), 100_000, 24, None, (1,), 1),
    # Forced tiny chunks with 2 threads: hundreds of tasks, each paying
    # dispatch plus a zeroed-and-folded partial accumulator.  On one core
    # the serial chunked path wins decisively; with real cores the compute
    # halves and t2 may take the row.
    ("threaded-tiny-chunks", (200, 200, 200), 200_000, 32, (2_000, 8), (1, 2), 1),
    # Default chunks with 2 threads: only ~20 fat tasks, so the serial/t2
    # margin is pure parallel speedup — decisive only with real cores.
    ("threaded-large", (200, 200, 200), 200_000, 32, None, (1, 2), 2),
]

#: name, shape, rank, forced tiles (int or None for the machine model's
#: choice), blocked-kernel thread counts to race, minimum cores the row needs.
DENSE_CASES = [
    # Big tensor at low rank: in mode 0 the einsum path copies the whole
    # tensor transposed, and auto's one GEMM of the free unfolding (and the
    # tiled GEMM) beat it; in modes 1 and 2 einsum starts with a GEMM
    # against mode 0 and auto returns its bytes.
    ("dense-large-lowR", (300, 300, 300), 16, None, (1,), 1),
    # Deliberately tiny forced tiles: a thousand tile iterations of Python
    # overhead — the blocked kernel loses every mode decisively.
    ("dense-tiny-tiles", (80, 80, 80), 32, 8, (1,), 1),
    # The blocked win re-raced with 2 threads over disjoint output-row
    # tiles: pure parallel speedup, decisive only with real cores.
    ("dense-threaded", (300, 300, 300), 16, None, (1, 2), 2),
]

QUICK_CASE_NAMES = (
    "large-3way",
    "tiny-forced-chunks",
    "threaded-tiny-chunks",
    "dense-large-lowR",
    "dense-tiny-tiles",
)


def _sparse_problem(shape, nnz, rank, seed):
    rng = np.random.default_rng(seed)
    coords = np.stack(
        [rng.integers(0, dim, size=nnz) for dim in shape], axis=1
    )
    values = rng.standard_normal(nnz)
    tensor = SparseTensor(shape=shape, coords=coords, values=values)
    factors = random_factors(shape, rank, seed=seed + 1)
    return tensor, factors


def _race(candidates, rtol=0.0, atol=1e-12):
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


def _race_sparse_row(name, shape, nnz, rank, forced, threads_options, seed):
    tensor, factors = _sparse_problem(shape, nnz, rank, seed)
    nzchunk, rchunk = forced if forced else (None, None)
    mode = 0

    candidates = {UNCHUNKED_LABEL: lambda: sparse_mttkrp_unchunked(tensor, factors, mode)}
    for threads in threads_options:
        candidates[chunked_label(threads)] = lambda t=threads: sparse_mttkrp(
            tensor, factors, mode, nzchunk=nzchunk, rchunk=rchunk, threads=t
        )

    measured, percentiles = _race(candidates)
    return {
        "kind": "sparse",
        "case": name,
        "shape": list(shape),
        "nnz": nnz,
        "rank": rank,
        "nzchunk": nzchunk,
        "rchunk": rchunk,
        "threads_options": list(threads_options),
        "median_seconds": measured,
        "span_percentiles": percentiles,
        "measured_winner": min(measured, key=measured.get),
    }


def _race_dense_row(name, shape, rank, tiles, threads_options, seed):
    """One entry per mode: einsum, blocked at each thread count, and auto."""
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
        candidates["auto"] = lambda m=mode: dense_mttkrp(data, factors, m)

        # The blocked kernel and auto's GEMM reassociate the sums, so
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
                "auto_dispatch": dispatch,
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
    for name, shape, nnz, rank, forced, threads_options, min_cores in SPARSE_CASES:
        if quick and name not in QUICK_CASE_NAMES:
            continue
        if cores < min_cores:
            skipped_rows.append(
                {"case": name, "reason": f"needs >= {min_cores} cores, have {cores}"}
            )
            continue
        rows.append(
            _race_sparse_row(name, shape, nnz, rank, forced, threads_options, seed=5)
        )
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

    sparse_rows = [row for row in rows if row["kind"] == "sparse"]
    dense_rows = [row for row in rows if row["kind"] == "dense"]
    blocked_wins = [
        f"{row['case']}/mode{row['mode']}"
        for row in dense_rows
        if min(
            seconds
            for label, seconds in row["median_seconds"].items()
            if label.startswith("blocked:")
        )
        < row["median_seconds"]["einsum"]
    ]
    low_rank_mode0 = next(
        row for row in dense_rows if row["case"] == "dense-large-lowR" and row["mode"] == 0
    )

    lines = []
    for row in rows:
        timing = "  ".join(
            f"{label} {seconds * 1e3:9.3f}ms" for label, seconds in row["median_seconds"].items()
        )
        if row["kind"] == "sparse":
            lines.append(f"  {row['case']:>20} {timing}  winner={row['measured_winner']}")
        else:
            auto_path = "gemm" if row["auto_dispatch"]["gemm"] else "einsum"
            lines.append(
                f"  {row['case'] + '/mode' + str(row['mode']):>20} {timing}"
                f"  winner={row['measured_winner']} (auto ran {auto_path})"
            )
    for row in skipped_rows:
        lines.append(f"  {row['case']:>20} skipped: {row['reason']}")
    lines.append(f"  blocked beats einsum on: {', '.join(blocked_wins) or 'no dense entry'}")
    lines.append(
        "  auto beats einsum in dense-large-lowR/mode0: "
        f"{low_rank_mode0['median_seconds']['auto'] < low_rank_mode0['median_seconds']['einsum']}"
    )
    emit("timed MTTKRP kernel races", "\n".join(lines))

    # The chunked kernel must demonstrably beat the legacy np.add.at path
    # somewhere, and the blocked dense kernel must beat einsum somewhere.
    assert any(
        row["measured_winner"] != UNCHUNKED_LABEL for row in sparse_rows
    ), "no recorded configuration where the chunked kernel wins"
    assert blocked_wins, "no recorded configuration where the blocked dense kernel wins"
    # auto runs its GEMM in mode 0 only, and there it beats einsum.
    for row in dense_rows:
        expected = {"gemm": 1, "einsum": 0} if row["mode"] == 0 else {"gemm": 0, "einsum": 1}
        assert row["auto_dispatch"] == expected, (row["case"], row["mode"])
    assert (
        low_rank_mode0["median_seconds"]["auto"] < low_rank_mode0["median_seconds"]["einsum"]
    ), "auto does not beat einsum in mode 0 of dense-large-lowR"
    # Threaded candidates can only genuinely win with real cores; on a
    # single-core machine serial execution keeps every row.
    if cores > 1:
        assert any(
            _winner_threads(row["measured_winner"]) > 1 for row in rows
        ), "multi-core machine but no recorded row where threads > 1 wins"
