"""Benchmark / reproduction harness for experiment ``sketch-parallel``.

Distributed sampled MTTKRP on the simulated machine: simulation throughput of
the sampled kernel and of sketched CP-ALS (``parallel_cp_als`` with
``kernel="sampled"``), and the measured-words frontier (words measured /
bound vs. relative error vs. ``P``) of the seeded coherent problem, recorded
as deterministic JSON
(``benchmarks/sketch_parallel_frontier.json``, override with the
``SKETCH_PARALLEL_FRONTIER_JSON`` environment variable).

Every recorded value is a word count, a ratio, or a seeded-draw error — no
wall clock — so the file is reproducible byte for byte from the ``--seed``
pytest option (default 1; draws use ``seed + 6``).
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import emit
from repro.cp.parallel_als import parallel_cp_als
from repro.experiments.sketch_crossover import coherent_problem
from repro.experiments.sketch_parallel import (
    format_sketch_parallel_table,
    sketch_parallel_frontier,
)
from repro.sketch.parallel import (
    ReconciledSampledRun,
    parallel_sampled_mttkrp,
    reconcile_sampled_mttkrp,
)

#: The acceptance toy problem of the subsystem (ISSUE 2): 8 x 9 x 10, R = 4, P = 6.
TOY_SHAPE = (8, 9, 10)
TOY_RANK = 4
TOY_PROCS = 6


@pytest.fixture(scope="module")
def base_seed(request):
    return int(request.config.getoption("--seed"))


@pytest.fixture(scope="module")
def problem(base_seed):
    return coherent_problem(TOY_SHAPE, TOY_RANK, seed=base_seed)


def test_parallel_sampled_kernel_simulation(benchmark, problem, base_seed):
    """Simulation throughput of the distributed sampled kernel on the toy problem."""
    tensor, factors = problem

    def run():
        return parallel_sampled_mttkrp(
            tensor,
            factors,
            0,
            (TOY_PROCS, 1, 1),
            n_samples=32,
            distribution="product-leverage",
            seed=base_seed + 6,
        )

    result = benchmark(run)
    assert result.assemble().shape == (TOY_SHAPE[0], TOY_RANK)
    assert result.max_words_communicated > 0


def test_parallel_randomized_als_simulation(benchmark, problem, base_seed):
    """Simulation throughput of distributed sketched CP-ALS with resampling."""
    tensor, _ = problem

    def run():
        return parallel_cp_als(
            tensor,
            TOY_RANK,
            TOY_PROCS,
            kernel="sampled",
            n_samples=64,
            seed=np.random.default_rng(base_seed),
            n_iter_max=5,
            tol=0.0,
        )

    outcome = benchmark(run)
    assert np.isfinite(outcome.als.model.fit(tensor))
    assert outcome.total_words > 0


@pytest.fixture(scope="module")
def frontier(base_seed):
    """The measured frontier, computed once and shared by the record/acceptance tests."""
    return sketch_parallel_frontier(seed=base_seed, sample_seed=base_seed + 6)


def test_sketch_parallel_frontier_json(frontier):
    """Record the measured words / bound vs error vs P frontier as JSON."""
    target = Path(
        os.environ.get(
            "SKETCH_PARALLEL_FRONTIER_JSON",
            Path(__file__).parent / "sketch_parallel_frontier.json",
        )
    )
    target.write_text(
        json.dumps(frontier, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    rows = [ReconciledSampledRun(**{**row, "shape": tuple(row["shape"]), "grid": tuple(row["grid"])}) for row in frontier["rows"]]
    emit("sketch-parallel", format_sketch_parallel_table(rows))

    # Measured == predicted for every point: the ledger meets the cost model's
    # bound word for word.
    assert all(row["measured_words"] == row["predicted_words"] for row in frontier["rows"])
    assert json.loads(target.read_text(encoding="utf-8"))["rows"]


def test_tree_leverage_drops_setup_words(frontier):
    """ISSUE 3 acceptance: the tree sampler's measured setup beats the score gather.

    On every recorded ``(P, draws)`` point, the ``tree-leverage`` column's
    measured setup words (Gram All-Reduce only) fall strictly below both the
    ``leverage`` column's factor gather and the ``product-leverage`` column's
    Gram All-Reduce + score gather, while every ledger still matches the
    collective-replay predictor word for word.
    """
    by_point = {}
    for row in frontier["rows"]:
        by_point.setdefault((row["n_procs"], row["n_draws"]), {})[
            row["distribution"]
        ] = row
    assert by_point, "frontier recorded no rows"
    for (n_procs, _), columns in by_point.items():
        tree = columns["tree-leverage"]
        assert tree["measured_words"] == tree["predicted_words"]
        assert tree["measured_setup_words"] < columns["leverage"]["measured_setup_words"]
        assert (
            tree["measured_setup_words"]
            < columns["product-leverage"]["measured_setup_words"]
        )


def test_acceptance_toy_beats_exact(problem, base_seed):
    """ISSUE 2 acceptance: on the toy problem the sampled run moves fewer words.

    At a sample count well under the crossover, the distributed sampled
    MTTKRP's per-rank measured words equal the cost model's prediction and
    fall strictly below the measured exact-kernel words.
    """
    tensor, factors = problem
    run = reconcile_sampled_mttkrp(
        tensor,
        factors,
        0,
        TOY_PROCS,
        n_samples=4,
        distribution="uniform",
        seed=base_seed + 4,
    )
    assert run.measured_words == run.predicted_words
    assert run.measured_words < run.exact_words_measured
    assert run.beats_exact
