"""Tests for the observability core: tracer, metrics, exporters (repro.observe)."""

import json

import numpy as np
import pytest

from repro.observe import (
    CHROME_TRACE_REQUIRED_KEYS,
    MetricsRegistry,
    active_session,
    add_comm,
    add_cost,
    annotate,
    chrome_trace,
    hit_rate,
    inc,
    is_tracing,
    median_time,
    metrics_snapshot,
    observe_value,
    percentile,
    start_trace,
    stop_trace,
    trace,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_snapshot,
)


class FakeClock:
    """Deterministic clock: every read advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestSpans:
    def test_nesting_parent_child_and_depth(self):
        with tracing() as session:
            with trace("sweep", iteration=1):
                with trace("mode", mode=0):
                    pass
                with trace("mode", mode=1):
                    pass
        sweep = session.spans_named("sweep")[0]
        modes = session.spans_named("mode")
        assert len(modes) == 2
        assert all(m.parent_id == sweep.span_id for m in modes)
        assert all(m.depth == sweep.depth + 1 for m in modes)
        assert sweep.parent_id is None
        assert [m.attrs["mode"] for m in session.children_of(sweep.span_id)] == [0, 1]

    def test_costs_roll_up_inclusively(self):
        with tracing() as session:
            with trace("outer"):
                add_cost(flops=1, words=2)
                with trace("inner"):
                    add_cost(flops=10, words=20)
                    add_comm(words=5, messages=1)
        inner = session.spans_named("inner")[0]
        outer = session.spans_named("outer")[0]
        assert (inner.flops, inner.words, inner.comm_words, inner.messages) == (10, 20, 5, 1)
        assert (outer.flops, outer.words, outer.comm_words, outer.messages) == (11, 22, 5, 1)

    def test_unattributed_costs_collected_outside_spans(self):
        with tracing() as session:
            add_cost(flops=3, words=4)
            add_comm(words=7, messages=2)
        assert session.unattributed == {
            "flops": 3,
            "words": 4,
            "comm_words": 7,
            "messages": 2,
        }
        assert session.spans == []

    def test_annotate_updates_innermost_span(self):
        with tracing() as session:
            with trace("mode", mode=0):
                annotate(n_draws=16, distinct_rows=9)
        span = session.spans_named("mode")[0]
        assert span.attrs == {"mode": 0, "n_draws": 16, "distinct_rows": 9}

    def test_deterministic_clock_timings(self):
        clock = FakeClock(step=1.0)
        with tracing(clock=clock) as session:
            with trace("a"):
                pass
        span = session.spans_named("a")[0]
        # Clock reads: epoch, open, close -> start 1.0, duration 1.0.
        assert span.start == 1.0
        assert span.duration == 1.0
        # Closing a span feeds the per-name latency histogram.
        assert session.metrics.histogram_summary("span.a.seconds")["sum"] == 1.0

    def test_span_survives_exception(self):
        with tracing() as session:
            with pytest.raises(RuntimeError):
                with trace("broken"):
                    raise RuntimeError("boom")
        assert len(session.spans_named("broken")) == 1
        assert active_session() is None

    def test_to_dict_round_trips_through_json(self):
        with tracing() as session:
            with trace("sweep", iteration=1):
                add_cost(flops=5)
        payload = json.dumps([s.to_dict() for s in session.spans])
        assert json.loads(payload)[0]["flops"] == 5


class TestSessionLifecycle:
    def test_start_twice_raises(self):
        start_trace()
        try:
            with pytest.raises(RuntimeError):
                start_trace()
        finally:
            stop_trace()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            stop_trace()

    def test_tracing_uninstalls_on_exception(self):
        with pytest.raises(ValueError):
            with tracing():
                assert is_tracing()
                raise ValueError("boom")
        assert not is_tracing()

    def test_hooks_are_noops_without_session(self):
        assert not is_tracing()
        add_cost(flops=1)
        add_comm(words=1)
        inc("anything")
        observe_value("anything", 1.0)
        annotate(x=1)
        with trace("nothing"):
            pass
        assert active_session() is None

    def test_disabled_hook_overhead_below_noise(self):
        """With tracing off the hooks must cost no more than a tiny constant.

        The bound is deliberately loose (an order of magnitude above what the
        no-op costs in practice) so the test asserts the *shape* of the fast
        path — one global load and an ``is None`` test, no allocation beyond
        the context-manager object — without becoming a flaky microbenchmark.
        """
        assert not is_tracing()
        n = 20000

        def hook_loop():
            for _ in range(n):
                add_cost(flops=1, words=1)
                inc("counter")
                with trace("span"):
                    pass

        spent, _ = median_time(hook_loop, repeats=5)
        per_iteration = spent / n
        assert per_iteration < 5e-6  # 5 microseconds for all three hooks


class TestMetrics:
    def test_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 4)
        registry.observe("lat", 2.0)
        registry.observe("lat", 1.0)
        assert registry.counter("hits") == 5
        assert registry.counter("never") == 0
        summary = registry.histogram_summary("lat")
        assert summary["count"] == 2
        assert summary["min"] == 1.0 and summary["max"] == 2.0
        assert summary["p50"] == 1.5
        assert registry.histogram_summary("never") == {"count": 0}

    def test_snapshot_is_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.inc("b")
        registry.inc("a")
        registry.observe("z", 1.0)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        json.dumps(snapshot, sort_keys=True)

    def test_percentile_matches_numpy(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        for q in (0.0, 25.0, 50.0, 75.0, 99.0, 100.0):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q))

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_hit_rate(self):
        assert hit_rate(3, 1) == 0.75
        assert hit_rate(0, 0) == 0.0


class TestMedianTime:
    def test_returns_median_and_last_result(self):
        clock = FakeClock(step=1.0)
        calls = []
        spent, result = median_time(lambda: calls.append(1) or len(calls), repeats=3, clock=clock)
        assert len(calls) == 3
        assert result == 3
        assert spent == 1.0  # every fake-clock duration is exactly one step

    def test_repeats_clamped_to_three(self):
        calls = []
        median_time(lambda: calls.append(1), repeats=1)
        assert len(calls) == 3


class TestChromeExport:
    def _session(self):
        clock = FakeClock(step=0.5)
        with tracing(clock=clock) as session:
            with trace("sweep", iteration=1, grid=(2, 2), arr=np.int64(7)):
                add_cost(flops=9, words=3)
        return session

    def test_events_carry_required_keys_and_args(self):
        payload = chrome_trace(self._session())
        validate_chrome_trace(payload)
        event = payload["traceEvents"][0]
        for key in CHROME_TRACE_REQUIRED_KEYS:
            assert key in event
        assert event["ph"] == "X"
        assert event["name"] == "sweep"
        assert event["args"]["flops"] == 9
        assert event["args"]["grid"] == [2, 2]
        assert event["args"]["arr"] == 7  # numpy scalars exported as plain ints
        json.dumps(payload)

    def test_write_chrome_trace_and_metrics(self, tmp_path):
        session = self._session()
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        write_chrome_trace(session, trace_path)
        write_metrics_snapshot(session, metrics_path)
        loaded = json.loads(trace_path.read_text())
        validate_chrome_trace(loaded)
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot == metrics_snapshot(session)
        assert "span.sweep.seconds" in snapshot["histograms"]

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            {"traceEvents": [{}]},
            {"traceEvents": [{"ph": "X", "ts": -1.0, "name": "a", "pid": 0, "dur": 1}]},
            {"traceEvents": [{"ph": "X", "ts": 0.0, "name": "", "pid": 0, "dur": 1}]},
            {"traceEvents": [{"ph": "X", "ts": 0.0, "name": "a", "pid": 0}]},
            {"traceEvents": [{"ph": "X", "ts": 0.0, "name": "a", "pid": "0", "dur": 1}]},
        ],
    )
    def test_validator_rejects_malformed(self, payload):
        with pytest.raises(ValueError):
            validate_chrome_trace(payload)
