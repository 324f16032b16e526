"""repro.observe — disabled-by-default tracing, metrics, and drift detection.

The observability layer of the reproduction: a context-var span tracer
(:class:`~repro.observe.tracer.trace` /
:func:`~repro.observe.tracer.tracing`) that attributes wall-clock time *and*
the counted flop/word/message ledgers to named phases, a
:class:`~repro.observe.metrics.MetricsRegistry` of counters and histograms
fed by the hot paths (dimtree partial-contraction cache, factor gate,
fused sampler cache, einsum path cache, samplers, simulated collectives),
Chrome trace-event / metrics-snapshot exporters, and drift detectors that
hold traced spans against the symbolic cost models at runtime.

Everything is off until a session is installed; with tracing disabled every
hook is a module-global load plus an ``is None`` test, so instrumented code
is bitwise identical to its un-instrumented behaviour.
"""

from repro.observe.drift import (
    DriftRecord,
    DriftReport,
    dimtree_drift,
    fused_drift,
    parallel_words_drift,
    retry_ledger_drift,
)
from repro.observe.export import (
    CHROME_TRACE_REQUIRED_KEYS,
    chrome_trace,
    metrics_snapshot,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_snapshot,
)
from repro.observe.instrument import (
    active_session,
    add_comm,
    add_cost,
    annotate,
    inc,
    is_tracing,
    observe_value,
    record_collective,
    record_label,
)
from repro.observe.metrics import MetricsRegistry, hit_rate, percentile
from repro.observe.tracer import (
    SpanRecord,
    TraceSession,
    median_time,
    start_trace,
    stop_trace,
    trace,
    tracing,
)

__all__ = [
    "CHROME_TRACE_REQUIRED_KEYS",
    "DriftRecord",
    "DriftReport",
    "MetricsRegistry",
    "SpanRecord",
    "TraceSession",
    "active_session",
    "add_comm",
    "add_cost",
    "annotate",
    "chrome_trace",
    "dimtree_drift",
    "fused_drift",
    "hit_rate",
    "inc",
    "is_tracing",
    "median_time",
    "metrics_snapshot",
    "observe_value",
    "parallel_words_drift",
    "percentile",
    "record_collective",
    "record_label",
    "retry_ledger_drift",
    "start_trace",
    "stop_trace",
    "trace",
    "tracing",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics_snapshot",
]
