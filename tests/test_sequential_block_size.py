"""Unit tests for block-size selection (Eq. (11)/(22)) and the dense tile chooser."""

import pytest

from repro.exceptions import ParameterError
from repro.sequential.block_size import (
    DEFAULT_DENSE_TILE_MEMORY_WORDS,
    block_size_is_valid,
    choose_block_size,
    choose_dense_tiles,
    dense_tile_working_set_words,
    max_block_size,
    minimum_memory_for_block,
    working_set_words,
)


class TestWorkingSet:
    def test_formula(self):
        assert working_set_words(4, 3) == 64 + 12
        assert working_set_words(1, 5) == 1 + 5

    def test_minimum_memory(self):
        assert minimum_memory_for_block(2, 3) == 8 + 6


class TestValidity:
    def test_valid_and_invalid(self):
        assert block_size_is_valid(4, 3, 100)
        assert not block_size_is_valid(5, 3, 100)

    def test_block_one_needs_n_plus_one(self):
        assert block_size_is_valid(1, 3, 4)
        assert not block_size_is_valid(1, 3, 3)


class TestMaxBlockSize:
    def test_returns_largest_valid(self):
        b = max_block_size(3, 100)
        assert block_size_is_valid(b, 3, 100)
        assert not block_size_is_valid(b + 1, 3, 100)

    def test_small_memory_gives_one(self):
        assert max_block_size(3, 4) == 1

    def test_too_small_memory_raises(self):
        with pytest.raises(ParameterError):
            max_block_size(3, 3)

    @pytest.mark.parametrize("n_modes", [2, 3, 4, 5])
    @pytest.mark.parametrize("memory", [16, 100, 1000, 10_000])
    def test_always_valid(self, n_modes, memory):
        b = max_block_size(n_modes, memory)
        assert block_size_is_valid(b, n_modes, memory)


class TestChooseBlockSize:
    def test_respects_constraint(self):
        for memory in (8, 64, 512, 4096):
            b = choose_block_size(3, memory)
            assert block_size_is_valid(b, 3, memory)

    def test_grows_with_memory(self):
        assert choose_block_size(3, 10_000) > choose_block_size(3, 100)

    def test_approx_m_to_the_one_over_n(self):
        memory = 10**6
        b = choose_block_size(3, memory)
        assert 0.5 * memory ** (1 / 3) <= b <= memory ** (1 / 3)

    def test_clamped_by_shape(self):
        b = choose_block_size(3, 10**6, shape=(8, 8, 8))
        assert b <= 8

    def test_invalid_alpha(self):
        with pytest.raises(ParameterError):
            choose_block_size(3, 100, alpha=1.5)

    def test_minimum_one(self):
        assert choose_block_size(4, 5) == 1


class TestDenseTileWorkingSet:
    def test_formula(self):
        # prod(tiles) + prod(tiles) / tiles[mode] * R + sum(tiles) * R
        assert dense_tile_working_set_words((4, 2, 3), 5, 0) == 24 + 6 * 5 + 9 * 5
        assert dense_tile_working_set_words((1, 1), 1, 1) == 1 + 1 + 2

    def test_output_tile_carries_no_krp_block(self):
        """Only the Khatri-Rao term depends on the output mode."""
        words = [dense_tile_working_set_words((4, 2, 3), 5, mode) for mode in range(3)]
        assert words == [99, 129, 109]

    @pytest.mark.parametrize(
        "tiles,rank,mode",
        [
            pytest.param((0, 2, 3), 5, 0, id="zero-tile"),
            pytest.param((4, 2, 3), 0, 0, id="zero-rank"),
            pytest.param((4,), 5, 0, id="one-mode"),
            pytest.param((4, 2, 3), 5, 3, id="mode-past-end"),
            pytest.param((4, 2, 3), 5, -1, id="negative-mode"),
        ],
    )
    def test_rejects_bad_arguments(self, tiles, rank, mode):
        with pytest.raises(ParameterError):
            dense_tile_working_set_words(tiles, rank, mode)


class TestChooseDenseTiles:
    def test_default_budget_is_two_to_the_twenty_words(self):
        """The blocked kernel's default tiles, and so its bytes, rest on this."""
        assert DEFAULT_DENSE_TILE_MEMORY_WORDS == 1 << 20
        assert choose_dense_tiles((300, 300, 300), 16, 0) == choose_dense_tiles(
            (300, 300, 300), 16, 0, 1 << 20
        )

    @pytest.mark.parametrize("n_modes", [2, 3, 4, 5])
    def test_working_set_fits_budget(self, n_modes):
        shape = (40,) * n_modes
        for memory in (1 << 10, 1 << 14, 1 << 20):
            for rank in (1, 8, 32):
                for mode in range(n_modes):
                    tiles = choose_dense_tiles(shape, rank, mode, memory)
                    assert len(tiles) == n_modes
                    assert all(1 <= t <= dim for t, dim in zip(tiles, shape))
                    if tiles != (1,) * n_modes:
                        words = dense_tile_working_set_words(tiles, rank, mode)
                        assert words <= 0.99 * memory

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_edge_is_the_largest_that_fits(self, mode):
        """One more unit of uniform edge would overflow ``alpha * M``."""
        shape, rank, memory = (50, 60, 70), 8, 1 << 14
        tiles = choose_dense_tiles(shape, rank, mode, memory)
        edge = max(tiles)
        assert tiles == tuple(min(edge, dim) for dim in shape)
        grown = tuple(min(edge + 1, dim) for dim in shape)
        assert dense_tile_working_set_words(grown, rank, mode) > 0.99 * memory

    def test_large_budget_covers_the_tensor(self):
        assert choose_dense_tiles((5, 4, 3), 2, 0) == (5, 4, 3)

    def test_short_mode_frees_budget_for_the_long_ones(self):
        """Tiles clamp to the extents, and the output mode splits differently."""
        assert choose_dense_tiles((2, 1000, 1000), 4, 0) == (2, 415, 415)
        assert choose_dense_tiles((1000, 1000, 2), 4, 0) == (716, 716, 2)

    def test_edge_grows_with_memory(self):
        small = choose_dense_tiles((50, 50, 50), 8, 0, 1 << 10)
        large = choose_dense_tiles((50, 50, 50), 8, 0, 1 << 14)
        assert small == (7, 7, 7) and large == (22, 22, 22)

    def test_tiny_memory_floors_at_ones(self):
        assert choose_dense_tiles((5, 4, 3), 2, 0, 8) == (1, 1, 1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.5])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ParameterError, match="alpha"):
            choose_dense_tiles((8, 8, 8), 4, 0, alpha=alpha)

    @pytest.mark.parametrize(
        "shape,rank,mode,memory",
        [
            pytest.param((8,), 4, 0, 1 << 10, id="one-mode"),
            pytest.param((8, 0, 8), 4, 0, 1 << 10, id="zero-extent"),
            pytest.param((8, 8, 8), 0, 0, 1 << 10, id="zero-rank"),
            pytest.param((8, 8, 8), 4, 3, 1 << 10, id="mode-past-end"),
            pytest.param((8, 8, 8), 4, 0, 0, id="zero-memory"),
        ],
    )
    def test_rejects_bad_arguments(self, shape, rank, mode, memory):
        with pytest.raises(ParameterError):
            choose_dense_tiles(shape, rank, mode, memory)
