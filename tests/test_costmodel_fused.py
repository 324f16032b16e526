"""Tests for the fused sweep cost model (repro.costmodel.fused_model)."""

import pytest

from repro.costmodel.fused_model import (
    expected_distinct_rows,
    sampled_dimtree_sweep_cost,
    sampled_tree_sweep_cost,
    three_way_crossover,
)
from repro.exceptions import ParameterError


class TestReplayStructure:
    def test_fused_tree_terms_track_parent_maintenance_only(self):
        """The fused replay never charges leaf contractions: at N = 3 the
        steady sweep recomputes only the (1, 2) node — one root read."""
        cost = sampled_dimtree_sweep_cost((10, 10, 10), 4, 16, [16, 10, 10])
        assert cost.root_reads == 1
        assert cost.contractions == 1
        assert cost.tree_flops == 2 * 1000 * 4

    def test_fused_draws_fewer_modes_than_baseline(self):
        """Per sweep, the fused kernel descends strictly fewer segment trees."""
        shape, rank, draws = (10, 10, 10), 4, 32
        distinct = [10, 10, 10]
        fused = sampled_dimtree_sweep_cost(shape, rank, draws, distinct)
        base = sampled_tree_sweep_cost(shape, rank, draws, distinct)
        assert fused.draw_flops < base.draw_flops
        assert fused.build_flops < base.build_flops

    def test_product_leverage_draws_are_free(self):
        cost = sampled_dimtree_sweep_cost(
            (10, 10, 10), 4, 16, [16, 10, 10], distribution="product-leverage"
        )
        assert cost.draw_flops == 0
        assert cost.draw_words == 0
        assert cost.build_flops > 0

    def test_first_sweep_differs_from_steady(self):
        shape, rank, draws = (8, 9, 10), 3, 16
        distinct = [16, 9, 8]
        first = sampled_dimtree_sweep_cost(shape, rank, draws, distinct, first_sweep=True)
        steady = sampled_dimtree_sweep_cost(shape, rank, draws, distinct)
        # first sweep builds both samplers cold at mode 0 and never rebuilds
        # factor 2 (it is only consumed before its own first update)
        assert first.build_flops != steady.build_flops

    def test_distinct_rows_validation(self):
        with pytest.raises(ParameterError):
            sampled_dimtree_sweep_cost((8, 9, 10), 3, 16, [16, 9])
        with pytest.raises(ParameterError):
            sampled_dimtree_sweep_cost((8, 9, 10), 3, 16, [16, 9, -1])
        with pytest.raises(ParameterError):
            sampled_tree_sweep_cost((8, 9, 10), 3, 16, [16])


class TestExpectedDistinct:
    def test_caps_at_draws_and_row_space(self):
        # fused free space at N = 3: mode 0 sees both other modes, modes
        # 1 and 2 a single mode of extent 10
        assert expected_distinct_rows((10, 10, 10), 64, fused=True) == [64, 10, 10]
        assert expected_distinct_rows((10, 10, 10), 64, fused=False) == [64, 64, 64]
        assert expected_distinct_rows((4, 4, 4), 64, fused=False) == [16, 16, 16]


class TestThreeWayCrossover:
    def test_rows_cover_the_grid_with_winners(self):
        rows = three_way_crossover((10, 10, 10), [2, 4], [8, 32])
        assert len(rows) == 4
        for row in rows:
            assert row["flops_winner"] in ("dimtree", "sampled-tree", "sampled-dimtree")
            assert row["words_winner"] in ("dimtree", "sampled-tree", "sampled-dimtree")
            assert set(row["flops"]) == {"dimtree", "sampled-tree", "sampled-dimtree"}

    def test_baseline_wins_flops_at_small_draws_exact_mode(self):
        """In the model the per-call sampled kernel keeps the flop lead at
        small draw counts (it never contracts the full tensor) — the fused
        wins come from measured runs, which the frontier records."""
        row = three_way_crossover((20, 20, 20), [4], [8])[0]
        assert row["flops"]["sampled-tree"] < row["flops"]["dimtree"]
        assert row["flops"]["sampled-dimtree"] < row["flops"]["dimtree"]

    def test_fused_beats_exact_dimtree_when_draws_small(self):
        row = three_way_crossover((20, 20, 20), [4], [8])[0]
        assert row["flops"]["sampled-dimtree"] < row["flops"]["dimtree"]
        assert row["words"]["sampled-dimtree"] < row["words"]["dimtree"]

    def test_dimtree_wins_when_draws_saturate(self):
        """Huge draw counts saturate the free space: sampling buys nothing
        and the exact tree wins."""
        row = three_way_crossover((6, 6, 6), [2], [4096])[0]
        assert row["flops_winner"] == "dimtree"
