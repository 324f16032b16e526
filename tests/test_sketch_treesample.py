"""Statistical and structural tests for the tree-based exact KRP leverage sampler.

Three layers of evidence that ``distribution="tree-leverage"`` draws from
*exactly* the Khatri-Rao leverage distribution:

* **oracle** — the per-mode conditional distributions the tree descends with
  factor into the exact joint (an algebraic identity, checked by enumeration);
* **statistical** — empirical draw frequencies match the exact
  ``krp_leverage_scores`` distribution in total-variation distance and pass a
  chi-squared goodness-of-fit test (the heavy sweeps are ``tier2``-marked and
  seed-swept in CI; a quick smoke version stays in tier 1);
* **distributed** — the parallel tree sampler's draws are bitwise identical
  to the sequential ones under the same seed, and its measured ledger equals
  the collective-replay predictor word for word, with strictly fewer setup
  words than the score-gather strategies.
"""

import numpy as np
import pytest

from repro.core.kernels import mttkrp
from repro.cp.als import cp_als
from repro.cp.parallel_als import parallel_cp_als
from repro.core.sampled_dimtree import sampler_build_cost, tree_draw_cost
from repro.exceptions import ParameterError
from repro.parallel.collectives import bucket_all_reduce_cost
from repro.parallel.distribution import StationaryDistribution
from repro.parallel.grid import ProcessorGrid
from repro.parallel.machine import SimulatedMachine
from repro.sketch.parallel import (
    parallel_sampled_mttkrp,
    predicted_sampled_ledger,
    reconcile_sampled_mttkrp,
)
from repro.sketch.parallel.sampled_mttkrp import SETUP_LABEL, charge_sampling_setup
from repro.sketch.sampled_mttkrp import sampled_mttkrp
from repro.sketch.sampling import (
    DISTRIBUTIONS,
    draw_krp_samples,
    factor_leverage_distribution,
    krp_row_distribution,
    leverage_scores,
)
from repro.sketch.treesample import (
    TREE_DISTRIBUTION,
    GramSegmentTree,
    KRPTreeSampler,
    tree_descent_levels,
    tree_joint_distribution,
)
from repro.tensor.random import random_factors, random_tensor

SHAPE = (6, 5, 4)
RANK = 3


@pytest.fixture(scope="module")
def base_seed(request):
    return int(request.config.getoption("--seed"))


@pytest.fixture(scope="module")
def factors():
    return random_factors(SHAPE, RANK, seed=0)


@pytest.fixture(scope="module")
def coherent_factors():
    """Factors with geometrically decaying row norms — skewed leverage mass."""
    raw = random_factors(SHAPE, RANK, seed=3)
    return [
        f * np.exp(-6.0 * np.arange(f.shape[0]) / f.shape[0])[:, None] for f in raw
    ]


def _phase_words(machine, label):
    """Words per participating rank, summed over the collectives of one phase."""
    return sum(rec.words_per_rank for rec in machine.records if rec.label.startswith(label))


def total_variation(empirical: np.ndarray, target: np.ndarray) -> float:
    return 0.5 * float(np.abs(empirical - target).sum())


def empirical_frequencies(samples, krp_rows: int) -> np.ndarray:
    freq = np.zeros(krp_rows)
    freq[samples.linear_rows()] = samples.counts / samples.n_draws
    return freq


def chi_squared_statistic(counts, expected, min_expected=5.0):
    """Goodness-of-fit statistic with small-expectation bins pooled.

    Bins are pooled smallest-expected-first until every pooled bin's
    expectation reaches ``min_expected`` (the classical validity rule for the
    chi-squared approximation).  Returns ``(statistic, degrees_of_freedom)``.
    """
    order = np.argsort(expected)
    pooled_obs, pooled_exp = [], []
    acc_obs = acc_exp = 0.0
    for j in order:
        acc_obs += counts[j]
        acc_exp += expected[j]
        if acc_exp >= min_expected:
            pooled_obs.append(acc_obs)
            pooled_exp.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if acc_exp > 0.0 and pooled_exp:
        pooled_obs[-1] += acc_obs
        pooled_exp[-1] += acc_exp
    obs = np.asarray(pooled_obs)
    exp = np.asarray(pooled_exp)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return stat, len(exp) - 1


class TestGramSegmentTree:
    @pytest.fixture(scope="class")
    def tree(self):
        rng = np.random.default_rng(11)
        return GramSegmentTree(rng.standard_normal((13, RANK))), 13

    def test_root_is_full_gram(self, tree):
        t, _ = tree
        leaf_sum = sum(t.node_gram(t.size + i) for i in range(t.n_rows))
        assert np.allclose(t.root_gram, leaf_sum)

    def test_internal_nodes_sum_children(self, tree):
        t, _ = tree
        for v in range(1, t.size):
            assert np.allclose(t.node_gram(v), t.node_gram(2 * v) + t.node_gram(2 * v + 1))

    def test_padded_leaves_are_zero(self, tree):
        t, n_rows = tree
        for i in range(n_rows, t.size):
            assert np.all(t.node_gram(t.size + i) == 0.0)

    def test_descent_is_deterministic_and_in_range(self, tree):
        t, n_rows = tree
        weight = np.linalg.pinv(t.root_gram)
        h = np.ones((40, RANK))
        u = np.random.default_rng(5).random(40)
        first = t.batched_draw(weight, h, u)
        second = t.batched_draw(weight, h, u)
        assert np.array_equal(first, second)
        assert first.min() >= 0
        assert first.max() < n_rows

    def test_node_evaluations_logarithmic(self):
        """Each draw evaluates exactly ``ceil(log2 I) + 1`` node masses."""
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((13, RANK))
        t = GramSegmentTree(matrix)
        weight = np.linalg.pinv(t.root_gram)
        n_draws = 64
        t.node_evaluations = 0
        t.batched_draw(weight, np.ones((n_draws, RANK)), rng.random(n_draws))
        assert t.levels == tree_descent_levels(13) == 4
        assert t.node_evaluations == n_draws * (t.levels + 1)

    def test_single_mode_draws_match_leverage(self):
        """With ``W = (A^T A)^+`` the tree draws one factor's leverage scores."""
        rng = np.random.default_rng(7)
        matrix = rng.standard_normal((9, RANK))
        t = GramSegmentTree(matrix)
        weight = np.linalg.pinv(t.root_gram)
        n_draws = 30000
        idx = t.batched_draw(weight, np.ones((n_draws, RANK)), rng.random(n_draws))
        freq = np.bincount(idx, minlength=9) / n_draws
        assert total_variation(freq, factor_leverage_distribution(matrix)) < 0.03

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            GramSegmentTree(np.ones(4))
        with pytest.raises(ParameterError):
            GramSegmentTree(np.ones((0, 2)))
        t = GramSegmentTree(np.ones((4, 2)))
        with pytest.raises(ParameterError):
            t.node_gram(8)
        with pytest.raises(ParameterError):
            # all-zero conditioning vector: every subtree has zero mass
            t.batched_draw(np.eye(2), np.zeros((3, 2)), np.full(3, 0.5))


class TestExactnessOracle:
    """The tree's conditionals factor into exactly the leverage joint."""

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_joint_matches_exact_leverage(self, factors, mode):
        assert np.allclose(
            tree_joint_distribution(factors, mode),
            krp_row_distribution(factors, mode, "leverage"),
        )

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_conditionals_factor_into_joint(self, factors, mode):
        """``p(i_1) p(i_2 | i_1)`` enumerated over all prefixes == the joint."""
        sampler = KRPTreeSampler(factors, mode)
        d1, d2 = sampler.dims
        joint = np.empty((d1, d2))
        first = sampler.conditional_distribution([])
        assert np.isclose(first.sum(), 1.0)
        for i1 in range(d1):
            second = sampler.conditional_distribution([i1])
            assert np.isclose(second.sum(), 1.0)
            joint[i1, :] = first[i1] * second
        # Kolda-Bader ordering: the smaller sampled mode varies fastest.
        assert np.allclose(
            joint.ravel(order="F"), krp_row_distribution(factors, mode, "leverage")
        )

    def test_conditional_weight_telescopes(self, factors):
        """``W_t`` absorbs one factor Gram per drawn mode (the descent identity)."""
        sampler = KRPTreeSampler(factors, 0)
        w0 = sampler.conditional_weight(0)
        w1 = sampler.conditional_weight(1)
        assert np.allclose(w0, w1 * sampler.grams[1])
        assert np.allclose(w1, sampler.gram_pinv)

    def test_row_probabilities_match_sample_set(self, factors):
        samples = draw_krp_samples(factors, 1, 300, distribution=TREE_DISTRIBUTION, seed=9)
        assert samples.distribution == TREE_DISTRIBUTION
        joint = krp_row_distribution(factors, 1, "leverage")
        assert np.allclose(samples.probabilities, joint[samples.linear_rows()])

    def test_draws_seed_reproducible(self, factors):
        a = draw_krp_samples(factors, 2, 64, distribution=TREE_DISTRIBUTION, seed=21)
        b = draw_krp_samples(factors, 2, 64, distribution=TREE_DISTRIBUTION, seed=21)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_draws_reject_bad_arguments(self, factors):
        with pytest.raises(ParameterError, match="n_draws"):
            draw_krp_samples(factors, 0, 0, distribution=TREE_DISTRIBUTION)
        with pytest.raises(ParameterError, match="mode"):
            draw_krp_samples(factors, 5, 10, distribution=TREE_DISTRIBUTION)


class TestStatisticalHarness:
    """Empirical tree-draw frequencies vs the exact leverage distribution."""

    def test_tv_smoke(self, factors):
        """Tier-1 smoke: 20k draws stay within TV 0.08 of the exact joint."""
        joint = krp_row_distribution(factors, 0, "leverage")
        samples = draw_krp_samples(factors, 0, 20000, distribution=TREE_DISTRIBUTION, seed=13)
        tv = total_variation(empirical_frequencies(samples, joint.shape[0]), joint)
        assert tv < 0.08

    @pytest.mark.tier2
    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("coherent", [False, True])
    def test_tv_matches_exact_leverage(self, base_seed, factors, coherent_factors, mode, coherent):
        """40k draws match the exact joint within an explicit TV tolerance.

        With ``J <= 30`` rows and ``n = 40000`` draws the expected TV of a
        *correct* sampler is ``~0.5 sqrt(J/n) < 0.02``; the 0.05 tolerance
        leaves a 2.5x margin while still failing any mode whose conditional
        is mis-weighted (the smallest single-mode error observed from
        dropping one Gram from ``W_t`` exceeds 0.15).
        """
        TV_TOLERANCE = 0.05
        facs = coherent_factors if coherent else factors
        joint = krp_row_distribution(facs, mode, "leverage")
        samples = draw_krp_samples(
            facs, mode, 40000, distribution=TREE_DISTRIBUTION, seed=base_seed + 17 * mode
        )
        tv = total_variation(empirical_frequencies(samples, joint.shape[0]), joint)
        assert tv < TV_TOLERANCE

    @pytest.mark.tier2
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_chi_squared_goodness_of_fit(self, base_seed, factors, mode):
        """Chi-squared GOF at alpha = 1e-3 against the exact leverage joint."""
        stats = pytest.importorskip("scipy.stats")
        joint = krp_row_distribution(factors, mode, "leverage")
        n_draws = 40000
        samples = draw_krp_samples(
            factors, mode, n_draws, distribution=TREE_DISTRIBUTION, seed=base_seed + 29 * mode
        )
        counts = np.zeros(joint.shape[0])
        counts[samples.linear_rows()] = samples.counts
        stat, dof = chi_squared_statistic(counts, n_draws * joint)
        assert dof >= 1
        assert stat < float(stats.chi2.ppf(0.999, dof))

    @pytest.mark.tier2
    def test_tree_and_materialized_leverage_agree_statistically(self, base_seed, factors):
        """Tree draws and materialized-score draws are the same distribution.

        Two-sample check through the shared exact joint: both empirical
        frequency vectors stay within the same TV ball of the same target.
        """
        joint = krp_row_distribution(factors, 0, "leverage")
        tree = draw_krp_samples(
            factors, 0, 40000, distribution=TREE_DISTRIBUTION, seed=base_seed + 101
        )
        mat = draw_krp_samples(
            factors, 0, 40000, distribution="leverage", seed=base_seed + 101
        )
        tv_tree = total_variation(empirical_frequencies(tree, joint.shape[0]), joint)
        tv_mat = total_variation(empirical_frequencies(mat, joint.shape[0]), joint)
        assert tv_tree < 0.05
        assert tv_mat < 0.05


class TestSampledKernelIntegration:
    def test_sampled_mttkrp_tree_estimate(self, coherent_factors):
        """The tree-sampled estimator approximates the exact MTTKRP."""
        from repro.tensor.kruskal import KruskalTensor

        tensor = KruskalTensor(coherent_factors).full()
        exact = mttkrp(tensor, coherent_factors, 0)
        report = sampled_mttkrp(
            tensor,
            coherent_factors,
            0,
            n_samples=2000,
            distribution=TREE_DISTRIBUTION,
            seed=5,
            return_report=True,
        )
        rel = np.linalg.norm(report.result - exact) / np.linalg.norm(exact)
        assert rel < 0.1
        assert report.distinct_rows <= 20

    def test_cp_als_sampled_tree_kernel(self):
        tensor = random_tensor(SHAPE, seed=2)
        result = cp_als(tensor, 2, n_iter_max=3, seed=0, kernel="sampled-tree")
        assert result.n_iterations >= 1
        assert all(np.all(np.isfinite(f)) for f in result.model.factors)

    def test_parallel_cp_als_sampled_tree_kernel(self):
        tensor = random_tensor(SHAPE, seed=4)
        result = parallel_cp_als(
            tensor, 2, 4, kernel="sampled-tree", n_samples=24, n_iter_max=2, seed=0
        )
        assert result.total_words > 0


class TestDistributedTree:
    """Satellite: distributed == sequential bitwise; ledger == predictor."""

    @pytest.fixture(scope="class")
    def problem(self):
        return random_tensor((8, 9, 10), seed=0), random_factors((8, 9, 10), RANK, seed=1)

    @pytest.mark.parametrize("grid", [(6, 1, 1), (1, 2, 3), (2, 3, 1), (1, 1, 1)])
    def test_draws_bitwise_match_sequential(self, problem, grid):
        tensor, factors = problem
        run = parallel_sampled_mttkrp(
            tensor, factors, 0, grid, n_samples=24,
            distribution=TREE_DISTRIBUTION, seed=42,
        )
        report = sampled_mttkrp(
            tensor, factors, 0, n_samples=24,
            distribution=TREE_DISTRIBUTION, seed=42, return_report=True,
        )
        assert np.array_equal(run.samples.indices, report.samples.indices)
        assert np.array_equal(run.samples.counts, report.samples.counts)
        assert np.array_equal(run.samples.probabilities, report.samples.probabilities)
        assert np.allclose(run.assemble(), report.result, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("grid", [(6, 1, 1), (1, 2, 3), (2, 3, 1)])
    def test_ledger_equals_predictor(self, problem, grid):
        tensor, factors = problem
        run = parallel_sampled_mttkrp(
            tensor, factors, 0, grid, n_samples=24,
            distribution=TREE_DISTRIBUTION, seed=42,
        )
        predicted = predicted_sampled_ledger((8, 9, 10), RANK, 0, grid, run.samples)
        assert np.array_equal(run.machine.words_sent, predicted)
        assert np.array_equal(run.machine.words_received, predicted)

    def test_setup_words_drop_score_gather(self, problem):
        """Tree setup = Gram All-Reduce only, strictly below both alternatives."""
        tensor, factors = problem
        grid = (1, 2, 3)
        setups = {}
        for distribution in ("tree-leverage", "product-leverage", "leverage"):
            run = parallel_sampled_mttkrp(
                tensor, factors, 0, grid, n_samples=24,
                distribution=distribution, seed=42,
            )
            setups[distribution] = _phase_words(run.machine, SETUP_LABEL)
        assert setups["tree-leverage"] > 0
        assert setups["tree-leverage"] < setups["product-leverage"]
        assert setups["tree-leverage"] < setups["leverage"]
        # the measured setup is one R x R Gram All-Reduce per input factor
        assert setups["tree-leverage"] == 2 * bucket_all_reduce_cost(6, RANK**2)

    def test_reconcile_measured_equals_predicted(self, problem):
        tensor, factors = problem
        run = reconcile_sampled_mttkrp(
            tensor, factors, 0, 6, n_samples=16,
            distribution=TREE_DISTRIBUTION, seed=5,
        )
        assert run.measured_words == run.predicted_words
        assert run.measured_setup_words > 0
        assert run.distribution == TREE_DISTRIBUTION


class TestTreeCostModel:
    def test_setup_linear_in_factors_not_in_krp(self):
        """Tree setup words are factor-linear: 10x the extents is 100x the
        Khatri-Rao rows but only 10x the words."""

        def setup_words(extents):
            return sum(sampler_build_cost(dim, 4, TREE_DISTRIBUTION)[1] for dim in extents)

        assert setup_words((200, 200)) == 10 * setup_words((20, 20))

    def test_build_cost_by_distribution(self):
        """Same build arithmetic as the leverage pass; the tree also writes
        its ``2 I R^2`` node-Gram words, and uniform keeps no state."""
        tree = sampler_build_cost(7, RANK, TREE_DISTRIBUTION)
        product = sampler_build_cost(7, RANK, "product-leverage")
        assert tree[0] == product[0] == 2 * 7 * RANK * RANK
        assert product[1] == 7 * RANK
        assert tree[1] - product[1] == 2 * 7 * RANK * RANK
        assert sampler_build_cost(7, RANK, "uniform") == (0, 0)

    def test_draw_flops_logarithmic(self):
        """Per-draw arithmetic grows with log I, not I."""
        base = tree_draw_cost((64, 64), 4, 1)[0]
        wider = tree_draw_cost((4096, 4096), 4, 1)[0]
        # 64x wider factors: a linear-in-I draw would cost 64x, the tree's
        # log2(4096)/log2(64) = 2x bound is not even reached (constant root
        # and h-update terms), and the count is linear in the draw count.
        assert base < wider < 2 * base
        assert tree_draw_cost((64, 64), 4, 10)[0] == 10 * base

    def test_build_flops_and_draw_words_positive(self):
        build = [sampler_build_cost(dim, RANK, TREE_DISTRIBUTION)[0] for dim in SHAPE[1:]]
        assert sum(build) == 2 * (5 + 4) * RANK * RANK
        assert tree_draw_cost(SHAPE[1:], RANK, 3)[1] == 3 * (3 + 2) * RANK * RANK

    def test_parallel_setup_words_closed_form(self):
        # one R x R Gram All-Reduce per input factor: 2 (P-1) ceil(R^2/P) each
        shape, rank = (8, 9, 10), 4
        dist = StationaryDistribution(shape, rank, 0, ProcessorGrid((1, 2, 2)))
        machine = SimulatedMachine(4)
        factors = random_factors(shape, rank, seed=2)
        charge_sampling_setup(machine, dist, factors, TREE_DISTRIBUTION)
        assert np.all(machine.words_sent == 2 * 2 * 3 * 4)
        assert np.all(machine.words_received == 2 * 2 * 3 * 4)


class TestDegenerateFactors:
    """Satellite fix: ParameterError (not NaNs) on degenerate factor input."""

    def test_leverage_scores_rejects_zero_column(self):
        matrix = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(ParameterError, match="all-zero column"):
            leverage_scores(matrix)

    def test_factor_leverage_distribution_rejects_zero_column(self):
        matrix = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(ParameterError, match="all-zero column"):
            factor_leverage_distribution(matrix)

    def test_leverage_scores_rejects_non_finite(self):
        with pytest.raises(ParameterError, match="finite"):
            leverage_scores(np.array([[1.0, np.nan], [2.0, 0.5]]))
        with pytest.raises(ParameterError, match="finite"):
            leverage_scores(np.array([[1.0, np.inf], [2.0, 0.5]]))

    def test_leverage_scores_rejects_zero_matrix(self):
        with pytest.raises(ParameterError):
            leverage_scores(np.zeros((4, 2)))

    def test_rank_deficient_without_zero_columns_still_works(self):
        """The fix targets dead columns, not rank deficiency in general."""
        scores = leverage_scores(np.ones((5, 3)))
        assert np.isclose(scores.sum(), 1.0)

    def test_tree_sampler_rejects_zero_column_factor(self, factors):
        degenerate = [f.copy() for f in factors]
        degenerate[1][:, 0] = 0.0
        with pytest.raises(ParameterError, match="all-zero column"):
            KRPTreeSampler(degenerate, 0)
        with pytest.raises(ParameterError, match="all-zero column"):
            draw_krp_samples(degenerate, 0, 8, distribution=TREE_DISTRIBUTION, seed=0)

    def test_tree_sampler_rejects_non_finite_factor(self, factors):
        degenerate = [f.copy() for f in factors]
        degenerate[2][0, 0] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            draw_krp_samples(degenerate, 0, 8, distribution=TREE_DISTRIBUTION, seed=0)

    @pytest.mark.parametrize("distribution", ["leverage", "product-leverage", "tree-leverage"])
    def test_joint_distributions_reject_zero_column(self, factors, distribution):
        degenerate = [f.copy() for f in factors]
        degenerate[1][:, 1] = 0.0
        with pytest.raises(ParameterError):
            krp_row_distribution(degenerate, 0, distribution)

    def test_all_distributions_registered(self):
        assert TREE_DISTRIBUTION in DISTRIBUTIONS
