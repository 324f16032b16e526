"""Measured-vs-modelled drift detection over traced ALS runs.

The repo's discipline is that counted ledgers equal symbolic cost-model
replays *exactly* (``==``, not ``<=``).  Until now that invariant lived in
hand-written per-PR tests; this module turns it into a runtime check over
any traced run, generalizing the reconciliation pattern of
:mod:`repro.sketch.parallel.reconcile`:

* :func:`dimtree_drift` — per-sweep traced flops/words of an exact
  dimension-tree kernel vs its per-sweep replay:
  :func:`repro.core.dimtree.dimtree_sweep_cost` for ``"dimtree"``,
  :func:`repro.core.dimtree.multisweep_sweep_costs` for ``"msdt"``;
* :func:`fused_drift` — per-sweep traced flops/words of the fused sampled
  kernel vs :func:`repro.costmodel.fused_model.sampled_dimtree_sweep_cost`,
  fed the per-mode ``n_draws`` / ``distinct_rows`` the kernel annotated onto
  its ``"mode"`` spans;
* :func:`parallel_words_drift` — per-sweep traced collective words
  (``comm_words``) of a distributed run vs the per-rank ledger replays
  (:func:`repro.parallel.dimtree.predicted_dimtree_ledger` and friends),
  summed over ranks.

Cost models are imported lazily inside the checkers so the observe package
stays a dependency leaf importable from anywhere in the stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.observe.tracer import SpanRecord, TraceSession

__all__ = [
    "DriftRecord",
    "DriftReport",
    "dimtree_drift",
    "fused_drift",
    "parallel_words_drift",
    "retry_ledger_drift",
]


@dataclass(frozen=True)
class DriftRecord:
    """One measured-vs-modelled comparison: a phase, a quantity, two numbers."""

    phase: str
    quantity: str
    measured: int
    modelled: int

    @property
    def drift(self) -> int:
        """Absolute discrepancy ``measured - modelled`` (zero means agreement)."""
        return self.measured - self.modelled

    @property
    def rel_drift(self) -> float:
        """Relative discrepancy against the model (0.0 when both are zero)."""
        if self.modelled == 0:
            return 0.0 if self.measured == 0 else float("inf")
        return self.drift / self.modelled

    @property
    def ok(self) -> bool:
        """Whether measured equals modelled exactly."""
        return self.measured == self.modelled

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "quantity": self.quantity,
            "measured": self.measured,
            "modelled": self.modelled,
            "drift": self.drift,
            "rel_drift": self.rel_drift,
        }


@dataclass
class DriftReport:
    """All comparisons of one checker run, with an exactness verdict."""

    kernel: str
    records: List[DriftRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every compared quantity matched its model exactly."""
        return all(record.ok for record in self.records)

    @property
    def max_abs_drift(self) -> int:
        """Largest absolute discrepancy across the records (0 when empty)."""
        return max((abs(record.drift) for record in self.records), default=0)

    def drifted(self) -> List[DriftRecord]:
        """The records where measured and modelled disagree."""
        return [record for record in self.records if not record.ok]

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "ok": self.ok,
            "max_abs_drift": self.max_abs_drift,
            "records": [record.to_dict() for record in self.records],
        }

    def raise_on_drift(self) -> "DriftReport":
        """Return self if exact, else raise ``AssertionError`` listing the drift."""
        bad = self.drifted()
        if bad:
            lines = ", ".join(
                f"{r.phase}.{r.quantity}: measured {r.measured} != modelled {r.modelled}"
                for r in bad
            )
            raise AssertionError(f"{self.kernel} drift: {lines}")
        return self


def _sweep_spans(session: TraceSession) -> List[SpanRecord]:
    """The session's ``"sweep"`` spans in execution order (by span id)."""
    return sorted(session.spans_named("sweep"), key=lambda span: span.span_id)


def dimtree_drift(
    session: TraceSession, shape: Sequence[int], rank: int, *, kernel: str = "dimtree"
) -> DriftReport:
    """Per-sweep flops/words of a traced exact tree run vs the model.

    Every ``"sweep"`` span's accrued flops and words are held against the
    same sweep of the kernel's replay, the cold-cache first one included:
    :func:`repro.core.dimtree.dimtree_sweep_cost` for every sweep of
    ``kernel="dimtree"``, and :func:`repro.core.dimtree.multisweep_sweep_costs`
    for ``kernel="msdt"``, whose sweeps differ.  Zero drift is the expected
    outcome on every sweep of a run under the default
    ``invalidation="exact"``, not just steady state.  A residual-gated run
    skips recomputations the model charges, so it shows as drift.
    """
    from repro.core.dimtree import dimtree_sweep_cost, multisweep_sweep_costs

    spans = _sweep_spans(session)
    if kernel == "dimtree":
        models = [dimtree_sweep_cost(shape, rank)] * len(spans)
    elif kernel == "msdt":
        models = multisweep_sweep_costs(shape, rank, len(spans))
    else:
        raise ValueError(
            f"no sweep replay for kernel {kernel!r} (supported: 'dimtree', 'msdt')"
        )
    report = DriftReport(kernel=kernel)
    for index, (span, model) in enumerate(zip(spans, models)):
        phase = f"sweep[{index}]"
        report.records.append(DriftRecord(phase, "flops", span.flops, model.flops))
        report.records.append(DriftRecord(phase, "words", span.words, model.words))
    return report


def fused_drift(session: TraceSession, shape: Sequence[int], rank: int) -> DriftReport:
    """Per-sweep flops/words of a traced tree-leverage fused run vs the replay.

    The fused kernel annotates each ``"mode"`` span with the ``n_draws`` and
    ``distinct_rows`` of its call — the only data-dependent sizes of the
    model — so each sweep can be replayed through
    :func:`repro.costmodel.fused_model.sampled_dimtree_sweep_cost`
    (``first_sweep=True`` for the cold sweep) without touching the kernel's
    draw log.
    """
    from repro.costmodel.fused_model import sampled_dimtree_sweep_cost

    report = DriftReport(kernel="sampled-dimtree")
    for index, span in enumerate(_sweep_spans(session)):
        modes = sorted(
            (
                child
                for child in session.children_of(span.span_id)
                if child.name == "mode"
            ),
            key=lambda child: child.span_id,
        )
        if len(modes) != len(shape):
            raise ValueError(
                f"sweep[{index}] has {len(modes)} mode spans, expected {len(shape)}"
            )
        draws = {child.attrs.get("n_draws") for child in modes}
        if len(draws) != 1 or None in draws:
            raise ValueError(
                f"sweep[{index}] mode spans lack a consistent n_draws annotation"
            )
        distinct = [child.attrs.get("distinct_rows") for child in modes]
        if any(value is None for value in distinct):
            raise ValueError(
                f"sweep[{index}] mode spans lack distinct_rows annotations"
            )
        model = sampled_dimtree_sweep_cost(
            shape, rank, draws.pop(), distinct, first_sweep=index == 0
        )
        phase = f"sweep[{index}]"
        report.records.append(DriftRecord(phase, "flops", span.flops, model.flops))
        report.records.append(DriftRecord(phase, "words", span.words, model.words))
    return report


def parallel_words_drift(
    session: TraceSession,
    shape: Sequence[int],
    rank: int,
    grid_dims: Sequence[int],
    *,
    kernel: str = "dimtree",
) -> DriftReport:
    """Per-sweep collective words of a traced distributed run vs the ledger replay.

    Each ``"sweep"`` span's ``comm_words`` (total words sent across the
    group, accrued at the collective charge point) is compared against the
    increment of the matching per-rank ledger prediction summed over ranks:
    ``ledger(sweeps=i+1).sum() - ledger(sweeps=i).sum()``.  Supported
    kernels: ``"dimtree"``
    (:func:`repro.parallel.dimtree.predicted_dimtree_ledger`) and
    ``"sampled-dimtree"``
    (:func:`repro.sketch.parallel.sampled_dimtree.predicted_sampled_dimtree_ledger`).
    """
    if kernel == "dimtree":
        from repro.parallel.dimtree import predicted_dimtree_ledger as ledger_fn
    elif kernel == "sampled-dimtree":
        from repro.sketch.parallel.sampled_dimtree import (
            predicted_sampled_dimtree_ledger as ledger_fn,
        )
    else:
        raise ValueError(
            f"no ledger replay for kernel {kernel!r} "
            "(supported: 'dimtree', 'sampled-dimtree')"
        )

    report = DriftReport(kernel=f"parallel-{kernel}")
    previous_total = 0
    for index, span in enumerate(_sweep_spans(session)):
        total = int(ledger_fn(shape, rank, grid_dims, index + 1).sum())
        report.records.append(
            DriftRecord(
                f"sweep[{index}]", "comm_words", span.comm_words, total - previous_total
            )
        )
        previous_total = total
    return report


def retry_ledger_drift(machine, baseline) -> DriftReport:
    """Ledger-under-faults vs fault-free ledger + charged retries, per rank.

    The exactness claim of the retrying collectives (ISSUE 10): every word a
    faulted run sends is either a word the fault-free run sends or a word
    charged to the retry ledgers — nothing double-counted, nothing lost.  So
    for every rank ``r``::

        machine.words_sent[r] == baseline_words_sent[r] + machine.retry_words_sent[r]

    and likewise for words received and messages sent.  ``machine`` is the
    (possibly faulted) :class:`~repro.parallel.machine.SimulatedMachine` of
    the run under test; ``baseline`` is either the machine of an identical
    fault-free run or a bare per-rank predicted ``words_sent`` array (e.g.
    :func:`repro.parallel.dimtree.predicted_dimtree_ledger`), in which case
    only the sent-words invariant is checked.
    """
    report = DriftReport(kernel="retry-ledger")
    if hasattr(baseline, "words_sent"):
        if baseline.n_procs != machine.n_procs:
            raise ValueError(
                f"baseline machine has {baseline.n_procs} ranks, "
                f"faulted machine has {machine.n_procs}"
            )
        quantities = [
            ("words_sent", baseline.words_sent, machine.words_sent, machine.retry_words_sent),
            (
                "words_received",
                baseline.words_received,
                machine.words_received,
                machine.retry_words_received,
            ),
            (
                "messages_sent",
                baseline.messages_sent,
                machine.messages_sent,
                machine.retry_messages_sent,
            ),
        ]
    else:
        import numpy as np

        base = np.asarray(baseline)
        if base.shape != (machine.n_procs,):
            raise ValueError(
                f"baseline ledger must have shape ({machine.n_procs},), got {base.shape}"
            )
        quantities = [("words_sent", base, machine.words_sent, machine.retry_words_sent)]
    for name, base, measured, retries in quantities:
        for r in range(machine.n_procs):
            report.records.append(
                DriftRecord(
                    f"rank[{r}]",
                    name,
                    int(measured[r]),
                    int(base[r]) + int(retries[r]),
                )
            )
    return report
