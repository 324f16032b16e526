"""Unit tests for the sparse-kernel wall-clock model (kernel_timing)."""

import pytest

from repro.costmodel.kernel_timing import (
    KernelTimingParams,
    UNCHUNKED_LABEL,
    chunked_label,
    predict_sparse_winner,
    predicted_sparse_mttkrp_seconds,
    predicted_sparse_timings,
)
from repro.exceptions import ParameterError


class TestPredictedSeconds:
    def test_zero_nnz_costs_nothing(self):
        assert predicted_sparse_mttkrp_seconds(0, 8, 3) == 0.0
        assert predicted_sparse_mttkrp_seconds(0, 8, 3, kernel="unchunked") == 0.0

    def test_unchunked_has_two_cache_regimes(self):
        """Per-element add.at cost jumps when the (nnz, R) temp spills."""
        params = KernelTimingParams(cache_words=1000)
        small = predicted_sparse_mttkrp_seconds(
            100, 10, 3, kernel="unchunked", params=params
        )
        # same element count per nnz, 10x the nnz: out of cache now
        large = predicted_sparse_mttkrp_seconds(
            1000, 10, 3, kernel="unchunked", params=params
        )
        assert large > 10 * small * 2  # super-linear across the boundary

    def test_covering_chunks_predict_exactly_the_unchunked_cost(self):
        """The model mirrors the implementation's bitwise fallback."""
        chunked = predicted_sparse_mttkrp_seconds(
            500, 6, 3, nzchunk=500, rchunk=6
        )
        unchunked = predicted_sparse_mttkrp_seconds(500, 6, 3, kernel="unchunked")
        assert chunked == unchunked

    def test_more_modes_cost_more(self):
        three = predicted_sparse_mttkrp_seconds(10_000, 16, 3)
        four = predicted_sparse_mttkrp_seconds(10_000, 16, 4)
        assert four > three

    def test_unknown_kernel_raises(self):
        with pytest.raises(ParameterError):
            predicted_sparse_mttkrp_seconds(100, 4, 3, kernel="blocked")


class TestWinnerPrediction:
    def test_chunked_wins_large_problems(self):
        """The benchmark's large rows: default machine-model chunks."""
        assert predict_sparse_winner(200_000, 32, 3) == chunked_label()
        assert predict_sparse_winner(400_000, 16, 3) == chunked_label()
        assert predict_sparse_winner(100_000, 24, 4) == chunked_label()

    def test_unchunked_wins_tiny_forced_chunks(self):
        """The benchmark's tiny row: per-chunk overhead dominates."""
        assert (
            predict_sparse_winner(2_000, 8, 3, nzchunk=64, rchunk=2)
            == UNCHUNKED_LABEL
        )

    def test_timings_table_has_one_row_per_candidate(self):
        timings = predicted_sparse_timings(10_000, 8, 3)
        assert set(timings) == {UNCHUNKED_LABEL, chunked_label()}
        assert all(t >= 0.0 for t in timings.values())

    def test_custom_params_change_the_call(self):
        """With a (hypothetical) free np.add.at, unchunked wins everywhere."""
        free_addat = KernelTimingParams(
            addat_seconds_in_cache=0.0, addat_seconds_out_of_cache=0.0
        )
        assert (
            predict_sparse_winner(200_000, 32, 3, params=free_addat)
            == UNCHUNKED_LABEL
        )


class TestThreadedSparseModel:
    def test_out_rows_required_when_threaded(self):
        with pytest.raises(ParameterError, match="out_rows"):
            predicted_sparse_mttkrp_seconds(10_000, 8, 3, nzchunk=256, rchunk=4, threads=2)

    def test_serial_prediction_ignores_out_rows(self):
        a = predicted_sparse_mttkrp_seconds(10_000, 8, 3, nzchunk=256, rchunk=4)
        b = predicted_sparse_mttkrp_seconds(
            10_000, 8, 3, nzchunk=256, rchunk=4, out_rows=200
        )
        assert a == b

    def test_threads_never_pay_on_one_core(self):
        """cpu_count=1 pins min(threads, cores)=1: pure added overhead."""
        one_core = KernelTimingParams(cpu_count=1)
        serial = predicted_sparse_mttkrp_seconds(
            200_000, 32, 3, nzchunk=2_000, rchunk=8, params=one_core
        )
        threaded = predicted_sparse_mttkrp_seconds(
            200_000, 32, 3, nzchunk=2_000, rchunk=8,
            threads=2, out_rows=200, params=one_core,
        )
        assert threaded > serial

    def test_threads_pay_on_big_problems_with_real_cores(self):
        """With cores available and fat chunks, halving compute beats the
        dispatch + fold surcharge and the threaded candidate wins."""
        four_cores = KernelTimingParams(cpu_count=4)
        winner = predict_sparse_winner(
            200_000, 32, 3, threads_options=(1, 2), out_rows=200, params=four_cores
        )
        assert winner == chunked_label(2)

    def test_more_tasks_cost_more_fold_and_dispatch(self):
        four_cores = KernelTimingParams(cpu_count=4)
        few_tasks = predicted_sparse_mttkrp_seconds(
            200_000, 32, 3, nzchunk=50_000, rchunk=32,
            threads=2, out_rows=200, params=four_cores,
        )
        many_tasks = predicted_sparse_mttkrp_seconds(
            200_000, 32, 3, nzchunk=1_000, rchunk=4,
            threads=2, out_rows=200, params=four_cores,
        )
        assert many_tasks > few_tasks

    def test_threaded_labels(self):
        assert chunked_label() == "chunked:numpy"
        assert chunked_label(1) == "chunked:numpy"
        assert chunked_label(4) == "chunked:numpy:t4"

    def test_timings_table_grows_one_row_per_thread_option(self):
        timings = predicted_sparse_timings(
            10_000, 8, 3, threads_options=(1, 2, 4), out_rows=50
        )
        assert set(timings) == {
            UNCHUNKED_LABEL,
            chunked_label(),
            chunked_label(2),
            chunked_label(4),
        }
