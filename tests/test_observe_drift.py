"""Measured-vs-modelled drift detection (repro.observe.drift).

The acceptance bar of the whole observability layer: ledgers accrued by the
traced kernels must equal the symbolic cost-model replays *exactly* — the
detectors use ``==``, not tolerances, because both sides count the same
integer quantities.  Covered here: sequential dimtree (flops and words per
sweep), the fused sampled-dimtree kernel (driven by the ``n_draws`` /
``distinct_rows`` span annotations), and the simulated-parallel drivers
(per-sweep collective words against the predicted machine ledgers).
"""

import numpy as np
import pytest

from repro.core.dimtree import DimensionTreeKernel, MultiSweepTreeKernel, dimtree_sweep_cost
from repro.core.sampled_dimtree import SampledDimtreeKernel
from repro.cp.als import cp_als
from repro.cp.parallel_als import parallel_cp_als
from repro.observe import (
    DriftRecord,
    DriftReport,
    dimtree_drift,
    fused_drift,
    parallel_words_drift,
    tracing,
)
from repro.tensor.random import noisy_low_rank_tensor

SHAPE = (6, 7, 8)
RANK = 3
SWEEPS = 4


def traced_sequential(kernel):
    tensor = noisy_low_rank_tensor(SHAPE, RANK, noise_level=0.05, seed=0)
    with tracing() as session:
        cp_als(
            tensor,
            RANK,
            n_iter_max=SWEEPS,
            tol=0.0,
            seed=1,
            kernel=kernel,
        )
    return session


class TestDriftRecords:
    def test_record_math(self):
        record = DriftRecord(phase="sweep[0]", quantity="flops", measured=10, modelled=10)
        assert record.drift == 0
        assert record.rel_drift == 0.0
        assert record.ok

    def test_record_zero_model_conventions(self):
        zero = DriftRecord(phase="p", quantity="q", measured=0, modelled=0)
        assert zero.rel_drift == 0.0 and zero.ok
        bad = DriftRecord(phase="p", quantity="q", measured=3, modelled=0)
        assert bad.rel_drift == float("inf") and not bad.ok

    def test_report_aggregation_and_raise(self):
        good = DriftRecord(phase="a", quantity="q", measured=1, modelled=1)
        bad = DriftRecord(phase="b", quantity="q", measured=4, modelled=1)
        report = DriftReport(kernel="dimtree", records=[good, bad])
        assert not report.ok
        assert report.max_abs_drift == 3
        assert report.drifted() == [bad]
        with pytest.raises(AssertionError):
            report.raise_on_drift()
        DriftReport(kernel="dimtree", records=[good]).raise_on_drift()

    def test_report_to_dict_is_json_shaped(self):
        record = DriftRecord(phase="a", quantity="q", measured=1, modelled=1)
        payload = DriftReport(kernel="dimtree", records=[record]).to_dict()
        assert payload["ok"] is True
        assert payload["records"][0]["quantity"] == "q"


class TestSweepCost:
    def test_model_matches_counted_kernel_per_sweep(self):
        tensor = noisy_low_rank_tensor(SHAPE, RANK, noise_level=0.05, seed=0)
        kernel = DimensionTreeKernel()
        cp_als(
            tensor,
            RANK,
            n_iter_max=SWEEPS,
            tol=0.0,
            seed=1,
            kernel=kernel,
        )
        assert kernel.per_sweep_costs() == [dimtree_sweep_cost(SHAPE, RANK)] * SWEEPS


class TestSequentialDrift:
    def test_dimtree_traced_spans_match_model_exactly(self):
        session = traced_sequential(DimensionTreeKernel())
        report = dimtree_drift(session, SHAPE, RANK)
        assert report.kernel == "dimtree"
        # flops + words per sweep, all exact.
        assert len(report.records) == 2 * SWEEPS
        assert report.ok, report.to_dict()
        assert report.max_abs_drift == 0

    @pytest.mark.parametrize(
        "shape,order",
        [(SHAPE, "C"), (SHAPE, "F"), ((6, 5, 4, 3), "C")],
        ids=["3way", "3way-fortran", "4way-declined"],
    )
    def test_msdt_traced_spans_match_its_replay_sweep_by_sweep(self, shape, order):
        """The multi-sweep sweeps differ from each other, and each matches
        its own entry of the replay, in either layout; a declined shape
        matches the halving tree's every sweep."""
        tensor = noisy_low_rank_tensor(shape, RANK, noise_level=0.05, seed=0)
        if order == "F":
            tensor = np.asfortranarray(tensor.data)
        with tracing() as session:
            cp_als(tensor, RANK, n_iter_max=5, tol=0.0, seed=1, kernel=MultiSweepTreeKernel())
        report = dimtree_drift(session, shape, RANK, kernel="msdt")
        assert report.kernel == "msdt"
        assert len(report.records) == 2 * 5
        assert report.ok, report.to_dict()
        halving = dimtree_drift(session, shape, RANK)
        assert halving.ok == (len(shape) == 4)

    def test_unknown_tree_kernel_rejected(self):
        session = traced_sequential(DimensionTreeKernel())
        with pytest.raises(ValueError, match="msdt"):
            dimtree_drift(session, SHAPE, RANK, kernel="sampled-dimtree")

    def test_fused_traced_spans_match_model_exactly(self):
        session = traced_sequential(SampledDimtreeKernel(n_samples=32, seed=3))
        report = fused_drift(session, SHAPE, RANK)
        assert report.kernel == "sampled-dimtree"
        assert report.ok, report.to_dict()
        assert report.max_abs_drift == 0

    @pytest.mark.parametrize(
        "make_kernel,drift",
        [
            pytest.param(DimensionTreeKernel, dimtree_drift, id="dimtree"),
            pytest.param(
                lambda: SampledDimtreeKernel(n_samples=32, seed=3),
                fused_drift,
                id="sampled-dimtree",
            ),
        ],
    )
    def test_five_way_spans_match_model_exactly(self, make_kernel, drift):
        """A 5-way tree has internal nodes below the root's children: every
        sweep, the cold first one included, still matches the model."""
        shape = (6, 5, 4, 3, 4)
        tensor = noisy_low_rank_tensor(shape, RANK, noise_level=0.05, seed=0)
        with tracing() as session:
            cp_als(tensor, RANK, n_iter_max=SWEEPS, tol=0.0, seed=1, kernel=make_kernel())
        report = drift(session, shape, RANK)
        assert len(report.records) == 2 * SWEEPS
        assert report.ok, report.to_dict()

    def test_drift_is_detected_when_spans_are_tampered(self):
        session = traced_sequential(DimensionTreeKernel())
        doctored = session.spans_named("sweep")[0]
        object.__setattr__(doctored, "flops", doctored.flops + 1)
        report = dimtree_drift(session, SHAPE, RANK)
        assert not report.ok
        assert report.max_abs_drift == 1

    def test_fused_drift_requires_annotated_mode_spans(self):
        session = traced_sequential(DimensionTreeKernel())
        with pytest.raises(ValueError):
            fused_drift(session, SHAPE, RANK)


class TestParallelDrift:
    def run_parallel(self, kernel):
        tensor = noisy_low_rank_tensor(SHAPE, RANK, noise_level=0.05, seed=0)
        with tracing() as session:
            result = parallel_cp_als(
                tensor,
                RANK,
                4,
                kernel=kernel,
                n_samples=32,
                n_iter_max=SWEEPS,
                tol=0.0,
                seed=1,
            )
        return session, result.grids[0]

    def test_parallel_dimtree_words_match_predicted_ledger(self):
        session, grid = self.run_parallel("dimtree")
        report = parallel_words_drift(session, SHAPE, RANK, grid, kernel="dimtree")
        assert report.ok, report.to_dict()
        assert len(report.records) == SWEEPS

    def test_parallel_sampled_dimtree_words_match_predicted_ledger(self):
        session, grid = self.run_parallel("sampled-dimtree")
        report = parallel_words_drift(
            session, SHAPE, RANK, grid, kernel="sampled-dimtree"
        )
        assert report.ok, report.to_dict()

    def test_unknown_kernel_rejected(self):
        session, grid = self.run_parallel("dimtree")
        with pytest.raises(ValueError):
            parallel_words_drift(session, SHAPE, RANK, grid, kernel="exact")
