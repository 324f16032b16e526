"""Tests for the Khatri-Rao row-sampling distributions (repro.sketch.sampling)."""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.sketch.sampling import (
    DISTRIBUTIONS,
    check_distribution,
    draw_krp_samples,
    factor_leverage_distribution,
    krp_leverage_scores,
    krp_row_distribution,
    leverage_scores,
)
from repro.tensor.khatri_rao import khatri_rao_excluding
from repro.tensor.random import random_factors

SHAPE = (6, 5, 4)
RANK = 3


@pytest.fixture()
def factors():
    return random_factors(SHAPE, RANK, seed=0)


class TestLeverageScores:
    def test_sum_equals_rank(self, factors):
        for f in factors:
            assert np.isclose(leverage_scores(f).sum(), RANK)

    def test_range(self, factors):
        scores = leverage_scores(factors[0])
        assert np.all(scores >= 0.0)
        assert np.all(scores <= 1.0 + 1e-12)

    def test_matches_hat_matrix_diagonal(self, factors):
        a = factors[1]
        q, _ = np.linalg.qr(a)
        assert np.allclose(leverage_scores(a), np.sum(q * q, axis=1))

    def test_rank_deficient_matrix(self):
        a = np.ones((5, 3))  # rank 1
        assert np.isclose(leverage_scores(a).sum(), 1.0)

    def test_rejects_non_matrix(self):
        with pytest.raises(ParameterError):
            leverage_scores(np.ones(4))

    def test_normalised_distribution(self, factors):
        dist = factor_leverage_distribution(factors[2])
        assert np.isclose(dist.sum(), 1.0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ParameterError):
            factor_leverage_distribution(np.zeros((4, 2)))


class TestKRPDistributions:
    def test_krp_leverage_matches_materialized(self, factors):
        for mode in range(3):
            krp = khatri_rao_excluding(factors, mode)
            assert np.allclose(krp_leverage_scores(factors, mode), leverage_scores(krp))

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_distributions_sum_to_one(self, factors, distribution):
        for mode in range(3):
            p = krp_row_distribution(factors, mode, distribution)
            assert p.shape == (np.prod([SHAPE[k] for k in range(3) if k != mode]),)
            assert np.all(p >= 0.0)
            assert np.isclose(p.sum(), 1.0)

    def test_product_leverage_is_product(self, factors):
        mode = 0
        joint = krp_row_distribution(factors, mode, "product-leverage")
        p1 = factor_leverage_distribution(factors[1])
        p2 = factor_leverage_distribution(factors[2])
        # Kolda-Bader row ordering: mode 1 (the smallest remaining) varies fastest.
        expected = np.array([p1[i1] * p2[i2] for i2 in range(SHAPE[2]) for i1 in range(SHAPE[1])])
        assert np.allclose(joint, expected)

    def test_unknown_distribution_rejected(self, factors):
        with pytest.raises(ParameterError):
            krp_row_distribution(factors, 0, "sobol")

    def test_all_zero_factors_rejected(self):
        zero = [np.zeros((4, 2)) for _ in range(3)]
        with pytest.raises(ParameterError):
            krp_row_distribution(zero, 0, "leverage")
        with pytest.raises(ParameterError):
            krp_row_distribution(zero, 0, "product-leverage")


class TestDrawKRPSamples:
    def test_counts_and_ranges(self, factors):
        samples = draw_krp_samples(factors, 0, 200, distribution="leverage", seed=1)
        assert samples.counts.sum() == 200
        assert samples.n_distinct == samples.indices.shape[0]
        assert samples.indices.shape[1] == 2
        for t, dim in enumerate(samples.dims):
            assert samples.indices[:, t].min() >= 0
            assert samples.indices[:, t].max() < dim

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_seeded_reproducibility(self, factors, distribution):
        a = draw_krp_samples(factors, 1, 100, distribution=distribution, seed=42)
        b = draw_krp_samples(factors, 1, 100, distribution=distribution, seed=42)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.counts, b.counts)
        assert np.allclose(a.probabilities, b.probabilities)

    def test_distinct_rows_are_unique(self, factors):
        samples = draw_krp_samples(factors, 0, 500, distribution="uniform", seed=2)
        keys = samples.linear_rows()
        assert len(np.unique(keys)) == len(keys)

    def test_weights_formula(self, factors):
        samples = draw_krp_samples(factors, 2, 64, distribution="leverage", seed=3)
        expected = samples.counts / (64 * samples.probabilities)
        assert np.allclose(samples.weights, expected)

    def test_probabilities_match_joint_vector(self, factors):
        for distribution in DISTRIBUTIONS:
            samples = draw_krp_samples(factors, 0, 150, distribution=distribution, seed=4)
            joint = krp_row_distribution(factors, 0, distribution)
            assert np.allclose(samples.probabilities, joint[samples.linear_rows()])

    def test_krp_rows_match_materialized(self, factors):
        samples = draw_krp_samples(factors, 1, 80, distribution="product-leverage", seed=5)
        krp = khatri_rao_excluding(factors, 1)
        assert np.allclose(samples.krp_rows(factors), krp[samples.linear_rows()])

    def test_empirical_frequencies_track_distribution(self, factors):
        joint = krp_row_distribution(factors, 2, "leverage")
        samples = draw_krp_samples(factors, 2, 40000, distribution="leverage", seed=6)
        empirical = np.zeros_like(joint)
        empirical[samples.linear_rows()] = samples.counts / 40000
        assert 0.5 * np.abs(empirical - joint).sum() < 0.05  # total variation

    def test_invalid_arguments(self, factors):
        with pytest.raises(ParameterError):
            draw_krp_samples(factors, 0, 0)
        with pytest.raises(ParameterError):
            draw_krp_samples(factors, 0, 10, distribution="nope")


class TestCheckDistribution:
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_accepts_every_distribution(self, distribution):
        assert check_distribution(distribution) == distribution

    def test_rejection_names_the_choices(self):
        with pytest.raises(ParameterError, match="unknown sampling distribution 'sobol'") as info:
            check_distribution("sobol")
        for distribution in DISTRIBUTIONS:
            assert repr(distribution) in str(info.value)

    def test_entry_points_share_the_message(self, factors):
        messages = []
        for call in (
            lambda: draw_krp_samples(factors, 0, 10, distribution="sobol"),
            lambda: krp_row_distribution(factors, 0, "sobol"),
            lambda: check_distribution("sobol"),
        ):
            with pytest.raises(ParameterError) as info:
                call()
            messages.append(str(info.value))
        assert len(set(messages)) == 1

