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


class TestDenseModel:
    def test_einsum_label_and_validation(self):
        from repro.costmodel.kernel_timing import (
            EINSUM_LABEL,
            dense_blocked_label,
            predicted_dense_mttkrp_seconds,
        )

        assert EINSUM_LABEL == "einsum"
        assert dense_blocked_label(1) == "blocked:t1"
        assert dense_blocked_label(3) == "blocked:t3"
        with pytest.raises(ParameterError):
            predicted_dense_mttkrp_seconds((10,), 4)
        with pytest.raises(ParameterError):
            predicted_dense_mttkrp_seconds((10, 10), 4, kernel="nope")
        with pytest.raises(ParameterError):
            predicted_dense_mttkrp_seconds((10, 10), 4, mode=5)

    def test_covering_tiles_predict_exactly_the_einsum_cost(self):
        """The model mirrors the implementation's bitwise fallback."""
        from repro.costmodel.kernel_timing import predicted_dense_mttkrp_seconds

        shape = (20, 19, 18)
        einsum = predicted_dense_mttkrp_seconds(shape, 8, kernel="einsum")
        covering = predicted_dense_mttkrp_seconds(shape, 8, kernel="blocked", tiles=1000)
        assert covering == einsum

    def test_blocked_wins_large_low_rank(self):
        """The recorded benchmark regime: big tensor, small R, einsum's
        reduce pass dominates and the tiled GEMM wins."""
        from repro.costmodel.kernel_timing import predict_dense_winner

        assert predict_dense_winner((300, 300, 300), 16) == "blocked:t1"

    def test_einsum_wins_tiny_tiles(self):
        """Forced tiny tiles drown the blocked path in per-tile overhead."""
        from repro.costmodel.kernel_timing import EINSUM_LABEL, predict_dense_winner

        assert predict_dense_winner((80, 80, 80), 32, tiles=8) == EINSUM_LABEL

    def test_einsum_wins_small_problems(self):
        from repro.costmodel.kernel_timing import EINSUM_LABEL, predict_dense_winner

        assert predict_dense_winner((8, 7, 6), 4, tiles=2) == EINSUM_LABEL

    def test_threads_never_pay_on_one_core_but_do_on_four(self):
        from repro.costmodel.kernel_timing import predict_dense_winner

        shape, rank = (300, 300, 300), 16
        one_core = KernelTimingParams(cpu_count=1)
        assert (
            predict_dense_winner(shape, rank, threads_options=(1, 2), params=one_core)
            == "blocked:t1"
        )
        four_cores = KernelTimingParams(cpu_count=4)
        assert (
            predict_dense_winner(shape, rank, threads_options=(1, 2), params=four_cores)
            == "blocked:t2"
        )

    def test_timings_table_has_einsum_plus_one_row_per_thread_option(self):
        from repro.costmodel.kernel_timing import (
            EINSUM_LABEL,
            predicted_dense_timings,
        )

        timings = predicted_dense_timings((50, 50, 50), 8, threads_options=(1, 2))
        assert set(timings) == {EINSUM_LABEL, "blocked:t1", "blocked:t2"}
        assert all(t > 0.0 for t in timings.values())
        # Insertion order starts with einsum: ties break toward einsum.
        assert next(iter(timings)) == EINSUM_LABEL

    def test_two_way_problems_have_no_krp_cost(self):
        """N=2 skips the KRP rebuild: the blocked prediction must reflect
        the implementation's zero-copy factor-block path."""
        from repro.costmodel.kernel_timing import predicted_dense_mttkrp_seconds

        params = KernelTimingParams(
            gemm_seconds_per_flop=0.0,
            dense_tile_overhead_seconds=0.0,
        )
        rate = params.dense_copy_seconds_per_element
        shape, rank, tiles = (100, 80), 4, 50
        cost = predicted_dense_mttkrp_seconds(
            shape, rank, kernel="blocked", tiles=tiles, params=params
        )
        total = shape[0] * shape[1]
        combos = 2  # ceil(80/50)
        expected = rate * total + rate * combos * shape[0] * rank
        assert cost == pytest.approx(expected)
