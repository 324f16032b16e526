"""Counters and histograms of the observability layer.

A :class:`MetricsRegistry` is owned by each
:class:`~repro.observe.tracer.TraceSession`: counters accumulate integer
tallies (cache hits, draws, collective words), histograms accumulate raw
observations (per-span wall-clock seconds) and report order-statistic
summaries (p50/p99 — the signals ROADMAP open item 1 asks for).  Everything
is plain Python over sorted copies; no dependency beyond the standard
library, and :meth:`MetricsRegistry.snapshot` renders a deterministic
sorted-key dictionary ready for ``json.dumps(..., sort_keys=True)``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of ``values`` (``q`` in ``[0, 100]``).

    Matches ``numpy.percentile``'s default (linear) method so the reported
    p50/p99 agree with what a numpy consumer would compute, without making
    the zero-dependency layer import numpy.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * (q / 100.0)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def hit_rate(hits: float, misses: float) -> float:
    """``hits / (hits + misses)`` with an empty-denominator guard (``0.0``)."""
    total = hits + misses
    return float(hits) / total if total > 0 else 0.0


class MetricsRegistry:
    """Named counters and histograms with a deterministic snapshot.

    Recording is thread-safe: tasks on the shared thread executor bump
    counters from worker threads (the per-rank local MTTKRPs of Algorithms 3
    and 4 count ``dense_dispatch.*`` and ``path_cache.*`` there), and the
    unlocked ``dict`` read-modify-write of ``inc`` would lose increments
    under that interleaving.  One lock covers both maps; reads take it too so
    a snapshot never observes a half-applied increment.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, List[float]] = {}
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------
    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Append ``value`` to histogram ``name``."""
        with self._lock:
            self._histograms.setdefault(name, []).append(float(value))

    # -- reading ------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (``0`` if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> Mapping[str, int]:
        """All counters, sorted by name."""
        with self._lock:
            return dict(sorted(self._counters.items()))

    def histogram_summary(self, name: str) -> Dict[str, float]:
        """Count/sum/min/max/p50/p99 summary of histogram ``name``."""
        with self._lock:
            values = list(self._histograms.get(name, ()))
        if not values:
            return {"count": 0}
        return {
            "count": len(values),
            "sum": float(sum(values)),
            "min": min(values),
            "max": max(values),
            "p50": percentile(values, 50.0),
            "p99": percentile(values, 99.0),
        }

    def snapshot(self) -> dict:
        """Sorted-key dictionary of every counter and histogram summary."""
        with self._lock:
            histogram_names = sorted(self._histograms)
            counters = dict(sorted(self._counters.items()))
        return {
            "counters": counters,
            "histograms": {
                name: self.histogram_summary(name) for name in histogram_names
            },
        }
