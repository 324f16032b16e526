"""Benchmark / reproduction harness for experiment ``sketch-crossover``.

Sampled vs exact MTTKRP: raw kernel throughput at several draw counts,
sketched CP-ALS (``cp_als`` on a sampled kernel), and the error/speedup
frontier of the seeded
coherent acceptance problem, which is recorded as JSON
(``benchmarks/sketch_frontier.json``, override with the
``SKETCH_FRONTIER_JSON`` environment variable).

Reproducibility: the base seed comes from the ``--seed`` pytest option
(default 1; draws use ``seed + 6``), and the recorded JSON is deterministic —
wall-clock-derived fields (``speedup``, ``kernel_speedup``) are stripped and
keys are sorted, so the same seed reproduces the file byte for byte on any
machine.  The timing columns still appear in the printed table.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import emit
from repro.core.kernels import mttkrp
from repro.core.sampled_dimtree import SampledDimtreeKernel
from repro.cp.als import cp_als
from repro.experiments.sketch_crossover import (
    DEFAULT_SHAPE,
    SketchCrossoverRow,
    coherent_problem,
    format_sketch_crossover_table,
    sketch_frontier,
)
from repro.sketch.sampled_mttkrp import sampled_mttkrp
from repro.sketch.treesample import KRPTreeSampler
from repro.tensor.khatri_rao import implicit_krp_column_count

DRAW_COUNTS = [500, 2000, 20000]

#: Wall-clock-derived row fields excluded from the deterministic JSON record.
TIMING_FIELDS = ("speedup", "kernel_speedup")


@pytest.fixture(scope="module")
def base_seed(request):
    return int(request.config.getoption("--seed"))


@pytest.fixture(scope="module")
def problem(base_seed):
    return coherent_problem(seed=base_seed)


def test_exact_kernel_reference(benchmark, problem):
    """Exact einsum MTTKRP on the acceptance problem (the baseline timing)."""
    tensor, factors = problem
    result = benchmark(mttkrp, tensor, factors, 0)
    assert result.shape == (DEFAULT_SHAPE[0], factors[0].shape[1])


@pytest.mark.parametrize("n_draws", DRAW_COUNTS)
def test_sampled_kernel_throughput(benchmark, problem, base_seed, n_draws):
    """Sampled MTTKRP (exact leverage scores) at increasing draw counts."""
    tensor, factors = problem
    rng = np.random.default_rng(base_seed + 6)
    result = benchmark(
        sampled_mttkrp,
        tensor,
        factors,
        0,
        n_samples=n_draws,
        distribution="leverage",
        seed=rng,
    )
    assert result.shape == (DEFAULT_SHAPE[0], factors[0].shape[1])


@pytest.mark.parametrize("n_draws", DRAW_COUNTS)
def test_tree_sampler_draw_throughput(benchmark, problem, base_seed, n_draws):
    """Segment-tree exact leverage draws: O(R^2 log I) each, no KRP formed."""
    _, factors = problem
    sampler = KRPTreeSampler(factors, 0)

    def run():
        return sampler.draw_indices(n_draws, np.random.default_rng(base_seed + 6))

    drawn = benchmark(run)
    assert drawn.shape == (n_draws, len(DEFAULT_SHAPE) - 1)


def test_randomized_als_throughput(benchmark, base_seed):
    """Sketched CP-ALS (product-leverage, per-iteration resampling)."""
    tensor, _ = coherent_problem((24, 24, 24), 4, seed=base_seed)

    def run():
        # One generator drives the initialisation and then every draw.
        rng = np.random.default_rng(max(base_seed - 1, 0))
        return cp_als(
            tensor,
            4,
            kernel=SampledDimtreeKernel(
                512, distribution="product-leverage", cache=False, seed=rng
            ),
            seed=rng,
            n_iter_max=10,
            tol=1e-6,
        )

    outcome = benchmark(run)
    assert np.isfinite(outcome.model.fit(tensor))


def test_sketch_frontier_json(base_seed):
    """Record the speedup/error frontier of the seeded acceptance problem as JSON."""
    frontier = sketch_frontier(seed=base_seed, sample_seed=base_seed + 6)
    target = Path(
        os.environ.get(
            "SKETCH_FRONTIER_JSON", Path(__file__).parent / "sketch_frontier.json"
        )
    )
    rows = [SketchCrossoverRow(**row) for row in frontier["rows"]]
    emit("sketch-crossover", format_sketch_crossover_table(rows))

    # Deterministic record: strip the wall-clock fields, sort keys.
    deterministic = dict(frontier)
    deterministic["rows"] = [
        {key: value for key, value in row.items() if key not in TIMING_FIELDS}
        for row in frontier["rows"]
    ]
    target.write_text(
        json.dumps(deterministic, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    # Acceptance: exact leverage-score sampling reaches <= 5% relative error
    # while materializing >= 10x fewer KRP rows than the full product — both
    # via the materialized score vector ("leverage") and via the tree sampler
    # ("tree-leverage"), which draws from the same distribution without it.
    krp_rows = frontier["problem"]["krp_rows"]
    assert krp_rows == implicit_krp_column_count(DEFAULT_SHAPE, 0)
    for distribution in ("leverage", "tree-leverage"):
        winners = [
            row
            for row in frontier["rows"]
            if row["distribution"] == distribution
            and row["rel_error"] <= 0.05
            and row["distinct_rows"] * 10 <= krp_rows
        ]
        assert winners, (
            f"no {distribution} point met the <=5% error at >=10x fewer rows target"
        )
    recorded = json.loads(target.read_text(encoding="utf-8"))
    assert recorded["rows"]
    assert all(field not in row for row in recorded["rows"] for field in TIMING_FIELDS)
