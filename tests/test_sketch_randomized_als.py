"""Tests for the sketched CP-ALS driver (repro.sketch.randomized_als)."""

import numpy as np
import pytest

from repro.cp.als import cp_als
from repro.exceptions import ParameterError
from repro.sketch import randomized_als
from repro.sketch.randomized_als import _weighted_init, randomized_cp_als
from repro.sketch.sampled_mttkrp import default_sample_count
from repro.tensor.random import random_low_rank_tensor

SHAPE = (16, 14, 12)
RANK = 3

#: Misused sampling and fallback options, each with the option its error names.
BAD_OPTIONS = [
    ({"min_fit": 0.999, "fallback_sweeps": -1}, "fallback_sweeps"),
    ({"min_fit": 0.999, "fallback_sweeps": 2.5}, "fallback_sweeps"),
    ({"min_fit": float("nan")}, "min_fit"),
    ({"min_fit": "0.5"}, "min_fit"),
    ({"n_samples": 0}, "n_samples"),
    ({"n_samples": 2.5}, "n_samples"),
    ({"min_fit": True}, "min_fit"),
    ({"min_fit": float("inf")}, "min_fit"),
    ({"min_fit": 0.5, "fallback_sweeps": None}, "fallback_sweeps"),
]


@pytest.fixture()
def tensor():
    return random_low_rank_tensor(SHAPE, RANK, seed=0)


class TestRandomizedCPALS:
    def test_recovers_low_rank_tensor(self, tensor):
        result = randomized_cp_als(
            tensor, RANK, n_samples=2000, seed=1, n_iter_max=40
        )
        assert result.exact_fit > 0.9
        assert not result.used_fallback
        assert result.fallback is None

    def test_default_sample_count(self, tensor):
        result = randomized_cp_als(tensor, RANK, seed=2, n_iter_max=5)
        assert result.n_samples == default_sample_count(RANK)

    def test_fallback_polishes_poor_sketched_run(self, tensor):
        """Starved of samples, the sketched run misses min_fit and the exact
        fallback takes over from the sketched factors."""
        result = randomized_cp_als(
            tensor,
            RANK,
            n_samples=4,
            seed=3,
            n_iter_max=5,
            min_fit=0.99,
            fallback_sweeps=30,
        )
        assert result.used_fallback
        assert result.fallback is not None
        sketched_fit = result.sketched.model.fit(tensor)
        assert result.exact_fit >= sketched_fit
        # Exact ALS on this tensor has basins at ~0.69 and 1.0; the polish must
        # at least land in one of them, far above the starved sketched run.
        assert result.exact_fit > 0.6

    def test_no_fallback_without_threshold(self, tensor):
        result = randomized_cp_als(
            tensor, RANK, n_samples=4, seed=4, n_iter_max=3
        )
        assert not result.used_fallback

    def test_totals_aggregate_sketched_and_fallback(self, tensor):
        result = randomized_cp_als(
            tensor,
            RANK,
            n_samples=4,
            seed=5,
            n_iter_max=3,
            min_fit=1.1,  # unreachable: always falls back
            fallback_sweeps=2,
        )
        assert result.used_fallback
        assert (
            result.n_iterations
            == result.sketched.n_iterations + result.fallback.n_iterations
        )
        assert (
            result.mttkrp_calls
            == result.sketched.mttkrp_calls + result.fallback.mttkrp_calls
        )

    def test_fallback_runs_the_default_exact_kernel(self, tensor):
        """The exact polish is ``cp_als``'s default, the dimension tree."""
        result = randomized_cp_als(
            tensor, RANK, n_samples=4, seed=8, n_iter_max=3, tol=0.0,
            min_fit=1.1, fallback_sweeps=4,
        )
        polish = cp_als(
            tensor, RANK, n_iter_max=4, tol=0.0,
            init=_weighted_init(result.sketched.model), kernel="dimtree",
        )
        assert result.fallback.fits == polish.fits
        assert result.fallback.model.weights.tobytes() == polish.model.weights.tobytes()
        for a, b in zip(result.fallback.model.factors, polish.model.factors):
            assert a.tobytes() == b.tobytes()

    def test_seeded_reproducibility(self, tensor):
        a = randomized_cp_als(tensor, RANK, n_samples=256, seed=6, n_iter_max=10)
        b = randomized_cp_als(tensor, RANK, n_samples=256, seed=6, n_iter_max=10)
        assert np.isclose(a.exact_fit, b.exact_fit)
        for fa, fb in zip(a.model.factors, b.model.factors):
            assert np.allclose(fa, fb)

    def test_distribution_choices(self, tensor):
        for distribution in ("uniform", "leverage", "product-leverage"):
            result = randomized_cp_als(
                tensor, RANK, n_samples=512, distribution=distribution, seed=7, n_iter_max=5
            )
            assert np.isfinite(result.exact_fit)
            assert result.distribution == distribution

    def test_unknown_distribution_rejected(self, tensor):
        with pytest.raises(ParameterError):
            randomized_cp_als(tensor, RANK, distribution="bogus")

    @pytest.mark.parametrize("options,name", BAD_OPTIONS)
    def test_bad_options_fail_before_the_sketched_run(self, tensor, monkeypatch, options, name):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sketched run started")

        monkeypatch.setattr(randomized_als, "cp_als", no_sweep)
        with pytest.raises(ParameterError, match=name):
            randomized_cp_als(tensor, RANK, n_iter_max=3, seed=0, **options)

    @pytest.mark.parametrize(
        "options,used_fallback",
        [
            ({"n_samples": np.int64(40)}, False),
            ({"min_fit": 0}, False),
            ({"min_fit": np.float64(1.1), "fallback_sweeps": np.int64(2)}, True),
        ],
    )
    def test_numpy_and_int_options_accepted(self, tensor, options, used_fallback):
        result = randomized_cp_als(tensor, RANK, n_iter_max=3, seed=0, **options)
        assert result.used_fallback is used_fallback
        assert result.n_samples == options.get("n_samples", default_sample_count(RANK))
        if used_fallback:
            assert result.fallback.n_iterations <= 2

    def test_zero_fallback_sweeps_never_falls_back(self, tensor):
        result = randomized_cp_als(
            tensor, RANK, n_samples=4, seed=3, n_iter_max=3, min_fit=1.01, fallback_sweeps=0
        )
        assert not result.used_fallback
