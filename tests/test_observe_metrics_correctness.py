"""Exact cache/sampler counter values and the labeled-collective audit.

The counter assertions are deliberately exact (not ``>=``): the dimension
tree's hit/miss/stale pattern and the fused sampler's rebuild cadence are
deterministic functions of the sweep count, and the closed forms below are
the observable signature of the caching design (ISSUE 6, satellite 3).  For
the seeded 3-mode problem with the default half split:

* dimtree, ``S`` sweeps: ``partial.hit = S``, ``partial.miss = 4 S``,
  ``partial.stale = 0``;
* fused cached, ``S`` sweeps: ``sampler_cache.hit = 2 S - 1``,
  ``sampler_cache.rebuild = 2 S + 1``, tree ``partial.hit = S`` /
  ``miss = 1`` / ``stale = S - 1``;
* fused ``cache=False``: no sampler-cache hits and no rebuilds, for it keeps
  no sampler cache; the per-call path builds both non-target sampler trees
  on every call, ``6 S`` tree builds.
"""

import numpy as np
import pytest

from repro.core.dimtree import DimensionTreeKernel
from repro.core.kernels import mttkrp
from repro.core.sampled_dimtree import SampledDimtreeKernel
from repro.cp.als import cp_als
from repro.cp.parallel_als import PARALLEL_KERNEL_NAMES, parallel_cp_als
from repro.parallel.stationary import stationary_mttkrp
from repro.observe import tracing
from repro.sketch.sampling import draw_krp_samples
from repro.tensor.random import noisy_low_rank_tensor, random_factors

SHAPE = (6, 7, 8)
RANK = 3


def traced_sweeps(kernel, sweeps):
    tensor = noisy_low_rank_tensor(SHAPE, RANK, noise_level=0.05, seed=0)
    with tracing() as session:
        cp_als(
            tensor,
            RANK,
            n_iter_max=sweeps,
            tol=0.0,
            seed=1,
            kernel=kernel,
        )
    return session


class TestDimtreeCounters:
    @pytest.mark.parametrize("sweeps", [3, 5])
    def test_partial_contraction_counts(self, sweeps):
        session = traced_sweeps(DimensionTreeKernel(), sweeps)
        counters = session.metrics.counters()
        # One cached-partial reuse per sweep (the root split shares one
        # subtree between the two modes it serves) and four subtree builds
        # per sweep.  The tree drops every node an update is about to stale
        # before that update's read, so no entry is ever found stale: each
        # rebuild is a miss.
        assert counters["dimtree.partial.hit"] == sweeps
        assert counters["dimtree.partial.miss"] == 4 * sweeps
        assert session.metrics.counter("dimtree.partial.stale") == 0


class TestFusedSamplerCounters:
    @pytest.mark.parametrize("sweeps", [3, 5])
    def test_cached_sampler_hit_and_rebuild_cadence(self, sweeps):
        session = traced_sweeps(SampledDimtreeKernel(n_samples=16, seed=2), sweeps)
        counters = session.metrics.counters()
        assert counters["sampler_cache.hit"] == 2 * sweeps - 1
        assert counters["sampler_cache.rebuild"] == 2 * sweeps + 1
        assert counters["dimtree.partial.hit"] == sweeps
        assert counters["dimtree.partial.miss"] == 1
        assert session.metrics.counter("dimtree.partial.stale") == sweeps - 1
        # Every rebuild constructs one segment tree.
        assert counters["treesample.tree_builds"] == counters["sampler_cache.rebuild"]
        # 3 modes x sweeps draws of n_samples each, through the tree sampler.
        assert counters["sampler.draws"] == 3 * sweeps * 16
        assert counters["treesample.draws"] == counters["sampler.draws"]
        assert 0 < counters["sampler.distinct"] <= counters["sampler.draws"]

    def test_uncached_fused_reports_zero_sampler_cache_hits(self):
        session = traced_sweeps(
            SampledDimtreeKernel(n_samples=16, cache=False, seed=2), 3
        )
        counters = session.metrics.counters()
        assert session.metrics.counter("sampler_cache.hit") == 0
        assert "sampler_cache.hit" not in counters
        # Degenerate path: no sampler cache, so no rebuild of one is counted;
        # both non-target sampler trees are built afresh per call.
        assert session.metrics.counter("sampler_cache.rebuild") == 0
        assert counters["treesample.tree_builds"] == 6 * 3
        assert counters["sampler.draws"] == 3 * 3 * 16
        assert counters["treesample.draws"] == 3 * 3 * 16

    @pytest.mark.parametrize(
        "kernel,tree_builds", [("sampled", 0), ("sampled-tree", 6 * 3)]
    )
    def test_per_call_registry_kernels_count_no_sampler_cache(self, kernel, tree_builds):
        """The registry's per-call sampled kernels keep no sampler cache, so
        they count neither hits nor rebuilds of one; only the tree-leverage
        draws build segment trees, two per call."""
        session = traced_sweeps(kernel, 3)
        counters = session.metrics.counters()
        assert not any(name.startswith("sampler_cache.") for name in counters)
        assert session.metrics.counter("treesample.tree_builds") == tree_builds
        assert counters["sampler.draws"] > 0


class TestKernelAndSamplerCounters:
    def test_path_cache_hit_then_miss(self):
        from repro.core import kernels

        rng = np.random.default_rng(0)
        tensor = rng.standard_normal(SHAPE)
        factors = random_factors(SHAPE, RANK, seed=1)
        # The einsum-path cache is module-global; start it cold so the
        # miss-then-hit sequence is deterministic under any test ordering.
        kernels._PATH_CACHE.clear()
        with tracing() as session:
            mttkrp(tensor, factors, 0)
            mttkrp(tensor, factors, 0)
        assert session.metrics.counter("path_cache.miss") == 1
        assert session.metrics.counter("path_cache.hit") == 1

    def test_draw_dedup_ratio_counters(self):
        factors = random_factors(SHAPE, RANK, seed=1)
        with tracing() as session:
            samples = draw_krp_samples(factors, 0, 50, seed=3)
        assert session.metrics.counter("sampler.draws") == 50
        distinct = session.metrics.counter("sampler.distinct")
        assert distinct == samples.n_distinct
        assert 0 < distinct <= 50


class TestLabeledCollectiveAudit:
    """Satellite 2: every collective in a traced parallel ALS carries a label."""

    @pytest.mark.parametrize("kernel", PARALLEL_KERNEL_NAMES)
    def test_no_unlabeled_collectives(self, kernel):
        tensor = noisy_low_rank_tensor(SHAPE, RANK, noise_level=0.05, seed=0)
        with tracing() as session:
            result = parallel_cp_als(
                tensor,
                RANK,
                4,
                kernel=kernel,
                n_samples=16,
                n_iter_max=2,
                tol=0.0,
                seed=1,
            )
        counters = session.metrics.counters()
        unlabeled = [name for name in counters if "<unlabeled>" in name]
        assert unlabeled == []
        label_calls = [
            name for name in counters if name.startswith("comm.label.") and name.endswith(".calls")
        ]
        assert label_calls, "traced parallel ALS should tally per-label collectives"
        # The per-label tally covers exactly the machine's logged events.
        assert sum(counters[name] for name in label_calls) == len(result.machine.records)
        assert all(record.label for record in result.machine.records)

    def test_collective_words_match_machine_ledger(self):
        tensor = noisy_low_rank_tensor(SHAPE, RANK, noise_level=0.05, seed=0)
        with tracing() as session:
            result = parallel_cp_als(
                tensor, RANK, 4, kernel="dimtree", n_iter_max=2, tol=0.0, seed=1
            )
        counters = session.metrics.counters()
        traced_words = sum(
            value
            for name, value in counters.items()
            if name.startswith("comm.") and not name.startswith("comm.label.") and name.endswith(".words")
        )
        ledger_words = sum(
            record.words_per_rank * len(record.group) for record in result.machine.records
        )
        assert traced_words == ledger_words


class TestThreadedKernelCounters:
    """Exact counter values for the threaded kernels.

    Tasks on the thread executor bump counters from worker threads (the
    metrics registry's lock keeps every increment), so a count must not
    depend on the thread count.
    """

    @staticmethod
    def _worker_counts(run, threads):
        """``dense_dispatch.*`` counts and path-cache lookups of one traced run."""
        tensor = noisy_low_rank_tensor((8, 6, 5), 2, noise_level=0.05, seed=2)
        factors = random_factors(tensor.shape, 2, seed=3)
        with tracing() as session:
            if run == "stationary_mttkrp":
                stationary_mttkrp(tensor, factors, 0, (2, 2, 1), threads=threads)
            else:
                parallel_cp_als(
                    tensor, 2, 4, kernel="exact", n_iter_max=2, tol=0.0, threads=threads
                )
        counters = session.metrics.counters()
        dispatch = {k: v for k, v in counters.items() if k.startswith("dense_dispatch.")}
        # Two workers may both plan a cold path, so only the lookup total is
        # fixed, not its hit/miss split.
        lookups = counters.get("path_cache.hit", 0) + counters.get("path_cache.miss", 0)
        return dispatch, lookups

    @pytest.mark.parametrize("run", ["stationary_mttkrp", "parallel_cp_als"])
    def test_worker_counts_match_serial(self, run):
        serial = self._worker_counts(run, threads=1)
        assert sum(serial[0].values()) > 0 and serial[1] > 0
        assert self._worker_counts(run, threads=2) == serial

    def test_blocked_dense_counters_are_exact(self):
        from repro.core.blocked_mttkrp import blocked_mttkrp

        rng = np.random.default_rng(5)
        data = rng.standard_normal((8, 6, 4))
        factors = random_factors((8, 6, 4), 3, seed=6)
        with tracing() as session:
            blocked_mttkrp(data, factors, 0, tiles=(4, 3, 2), threads=2)
            blocked_mttkrp(data, factors, 0, tiles=(8, 6, 4))  # covering
        counters = session.metrics.counters()
        # 2 output tiles x (2 x 2) non-output combos from the tiled call.
        assert counters["blocked_mttkrp.tiles"] == 8
        assert counters["blocked_mttkrp.threads"] == 2
        assert counters["blocked_mttkrp.fallback"] == 1

    def test_dense_dispatch_counters_are_exact(self):
        from repro.core.blocked_mttkrp import dense_mttkrp

        rng = np.random.default_rng(7)
        data = rng.standard_normal((8, 7, 6))
        factors = random_factors((8, 7, 6), 4, seed=8)
        with tracing() as session:
            for mode in range(3):
                dense_mttkrp(data, factors, mode)
            # No free C-order unfolding: mode 0 falls back to einsum.
            dense_mttkrp(np.asfortranarray(data), factors, 0)
        counters = session.metrics.counters()
        assert counters["dense_dispatch.gemm"] == 1
        assert counters["dense_dispatch.einsum"] == 3
        assert "dense_dispatch.blocked" not in counters
