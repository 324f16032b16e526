"""The traced phase: per-layer metrics, named after the ``src/repro`` modules.

Every number is taken from outside the program, at the public entry points
of each layer: a timing :class:`~repro.core.sweep_kernel.SweepKernel` wraps
the kernel object that ``repro.cp.als._resolve_kernel`` hands the driver,
``repro.observe.tracing()`` supplies the spans and counters the program
already records, and single kernel calls are timed in isolation on the
final factors.  The phase first runs half its time untraced: those calls
give each slot's wall-clock sweep times, ``cp.sweep_ms`` and
``cp.first_sweep_ms``, its first sweep over the numpy sweep,
``cp.first_sweep_rel``, and the untraced medians the traced ones are set
against.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional
from unittest import mock

import numpy as np

import repro.cp.als as als_module
from harness import Call, Phase, median, metric
from repro.bounds.parallel import combined_parallel_lower_bound
from repro.core.blocked_mttkrp import blocked_mttkrp, dense_mttkrp
from repro.core.kernels import mttkrp, mttkrp_flops
from repro.core.matmul_baseline import mttkrp_via_matmul
from repro.core.sweep_kernel import SweepKernel
from repro.observe import hit_rate, median_time, parallel_words_drift, tracing
from repro.parallel.general import general_mttkrp
from repro.parallel.grid_selection import choose_general_grid, choose_stationary_grid
from repro.parallel.stationary import stationary_mttkrp
from repro.sketch.sampled_mttkrp import default_sample_count
from repro.sketch.treesample import KRPTreeSampler
from repro.tensor import random_factors
from workloads import MACHINE_SLOTS, SLOTS, Workload

#: Units of metrics counted by the program (or computed from such counts);
#: with the same seed they repeat exactly.
COUNTED_UNITS = ("flop", "words", "messages", "draws", "builds", "ratio")

#: Kernels timed one call at a time, outside ALS.
ISOLATED_KERNELS = {
    "einsum": mttkrp,
    "blocked": blocked_mttkrp,
    "auto": dense_mttkrp,
    "matmul": mttkrp_via_matmul,
}

#: Reruns of the threaded slot at two threads.
THREAD2_RERUNS = 2

#: Simulated ranks of the isolated Algorithm 3/4 timings on every workload.
ISOLATED_PROCS = 4

#: Per-mode metrics cover the modes every workload has, mode0..mode2;
#: ``lopsided-4way``'s mode 3 counts in the per-sweep totals only.
PER_MODE = range(3)


@dataclass
class KernelLog:
    """Wall-clock seconds spent inside one call's kernel object, per sweep."""

    #: ``perf_counter`` at the start of each ``begin_sweep``.
    begins: List[float] = field(default_factory=list)
    #: Per sweep: seconds in ``mttkrp`` by mode.
    mttkrp: List[Dict[int, float]] = field(default_factory=list)
    #: Per sweep: seconds in ``begin_sweep`` plus ``factor_updated``.
    hooks: List[float] = field(default_factory=list)


class TimedKernel(SweepKernel):
    """Forward the sweep protocol to a kernel, timing every call into it."""

    def __init__(self, inner: SweepKernel, log: KernelLog) -> None:
        self.inner = inner
        self.log = log

    def begin_sweep(self, iteration: int) -> None:
        start = time.perf_counter()
        self.inner.begin_sweep(iteration)
        self.log.begins.append(start)
        self.log.mttkrp.append({})
        self.log.hooks.append(time.perf_counter() - start)

    def factor_updated(self, mode: int, factor: np.ndarray) -> None:
        start = time.perf_counter()
        self.inner.factor_updated(mode, factor)
        self.log.hooks[-1] += time.perf_counter() - start

    def mttkrp(self, tensor, factors, mode: int) -> np.ndarray:
        start = time.perf_counter()
        out = self.inner.mttkrp(tensor, factors, mode)
        per_mode = self.log.mttkrp[-1]
        per_mode[mode] = per_mode.get(mode, 0.0) + time.perf_counter() - start
        return out

    def capture_state(self):
        return self.inner.capture_state()

    def restore_state(self, state) -> None:
        self.inner.restore_state(state)

    def invalidate_caches(self) -> bool:
        return self.inner.invalidate_caches()


def traced_call(phase: Phase, slot: str) -> Optional[Call]:
    """One ALS call of ``slot`` with tracing on and its kernel wrapped.

    Both drivers resolve their kernel object through ``_resolve_kernel``
    (``parallel_cp_als`` passes its distributed kernel to ``cp_als``), so
    wrapping the resolver's return value times every slot the same way.
    """
    log = KernelLog()
    resolve = als_module._resolve_kernel

    def timed_resolve(*args, **kwargs):
        return TimedKernel(resolve(*args, **kwargs), log)

    with tracing() as session, mock.patch.object(als_module, "_resolve_kernel", timed_resolve):
        call = phase.call(slot)
    if call is None:
        return None
    call.session, call.log = session, log
    if len(log.begins) != len(call.stamps):
        call.problems.append("the timing kernel missed sweeps")
    workload = phase.workload
    if workload.procs and slot == "dimtree":
        drift = parallel_words_drift(
            session, workload.shape, workload.rank, call.result.grids[0], kernel="dimtree"
        )
        if not drift.ok:
            call.problems.append(f"parallel words drift {drift.max_abs_drift}")
    return call


def steady_spans(call: Call):
    """The traced call's sweep spans from sweep 2 on."""
    spans = sorted(call.session.spans_named("sweep"), key=lambda span: span.span_id)
    return spans[1:]


def counters(calls: List[Call]) -> Counter:
    total: Counter = Counter()
    for call in calls:
        total.update(call.session.metrics.counters())
    return total


def isolated_ms(fn) -> float:
    """Median milliseconds of three calls to ``fn``."""
    return median_time(fn)[0] * 1e3


def per_mode(name: str, values: Dict[int, float], unit: str) -> Dict[str, dict]:
    """``name.mode0..2``."""
    return {f"{name}.mode{m}": metric(values[m], unit) for m in PER_MODE}


def slot_metrics(
    workload: Workload, slot: str, untraced: List[Call], traced: List[Call]
) -> Dict[str, dict]:
    """cp, core and observe metrics of one slot."""
    out: Dict[str, dict] = {}
    steady = [ms for c in untraced for ms in c.steady_ms]
    traced_steady = [ms for c in traced for ms in c.steady_ms]
    # Per steady sweep k >= 1 of every traced call: stamp interval and the
    # seconds spent inside the kernel object during it.
    sweeps = [
        (call.stamps[k] - call.stamps[k - 1], call.log.mttkrp[k], call.log.hooks[k])
        for call in traced
        for k in range(1, len(call.stamps))
    ]
    out[f"cp.sweep_ms.{slot}"] = metric(median(steady), "ms")
    out[f"cp.first_sweep_ms.{slot}"] = metric(median(c.first_ms for c in untraced), "ms")
    out[f"cp.first_sweep_rel.{slot}"] = metric(median(c.first_rel for c in untraced), "x")
    out[f"cp.call_setup_ms.{slot}"] = metric(
        median((c.log.begins[0] - c.start) * 1e3 for c in traced), "ms"
    )
    out[f"cp.driver_ms.{slot}"] = metric(
        median((sweep - sum(modes.values()) - hooks) * 1e3 for sweep, modes, hooks in sweeps),
        "ms",
    )
    out[f"cp.sweep_ms_p80.{slot}"] = metric(
        float(np.percentile(steady, 80)) if steady else None, "ms"
    )
    out[f"cp.steady_samples.{slot}"] = metric(len(steady), "samples")

    out[f"core.mttkrp_ms.{slot}"] = metric(
        median(sum(s[1].values()) * 1e3 for s in sweeps), "ms"
    )
    out.update(
        per_mode(
            f"core.mttkrp_ms.{slot}",
            {m: median(s[1].get(m, 0.0) * 1e3 for s in sweeps) for m in PER_MODE},
            "ms",
        )
    )
    out[f"core.first_mttkrp_ms.{slot}"] = metric(
        median(c.log.mttkrp[0].get(0, 0.0) * 1e3 for c in traced), "ms"
    )
    out[f"core.hooks_ms.{slot}"] = metric(median(s[2] * 1e3 for s in sweeps), "ms")

    # Counted flops where the kernel counts them; the nominal 2*I*R per
    # MTTKRP for the per-call kernels, which count nothing.
    counted = [span.flops for c in traced for span in steady_spans(c)]
    flops = median(counted) if any(counted) else (
        len(workload.shape) * mttkrp_flops(workload.shape, workload.rank, atomic=False)
    )
    traced_ms = median(traced_steady)
    out[f"core.gflops.{slot}"] = metric(
        flops / (traced_ms * 1e6) if flops and traced_ms else None, "GFLOP/s"
    )
    if slot in ("dimtree", "sampled-dimtree"):
        out[f"core.flops_per_sweep.{slot}"] = metric(median(counted), "flop")
        out[f"core.words_per_sweep.{slot}"] = metric(
            median(span.words for c in traced for span in steady_spans(c)), "words"
        )

    untraced_ms = median(steady)
    out[f"observe.overhead_frac.{slot}"] = metric(
        traced_ms / untraced_ms - 1.0 if traced_ms and untraced_ms else None, "frac"
    )
    return out


def parallel_metrics(workload: Workload, slot: str, traced: List[Call]) -> Dict[str, dict]:
    """Counted communication per steady sweep; 0 where no machine runs."""
    words = messages = over_bound = 0
    if workload.procs and slot in MACHINE_SLOTS and traced:
        words = median(w for c in traced for w in c.words[1:])
        messages = median(span.messages for c in traced for span in steady_spans(c))
        bound = combined_parallel_lower_bound(workload.shape, workload.rank, workload.procs)
        # The bound is per MTTKRP and per rank; a sweep makes one per mode.
        over_bound = words / (len(workload.shape) * bound.combined)
    return {
        f"parallel.comm_words_per_sweep.{slot}": metric(words, "words"),
        f"parallel.messages_per_sweep.{slot}": metric(messages, "messages"),
        f"parallel.words_over_bound.{slot}": metric(over_bound, "ratio"),
    }


def workload_metrics(phase: Phase, traced: Dict[str, List[Call]]) -> Dict[str, dict]:
    """Cache, dispatch and sampler ratios from the traced calls' counters.

    Every traced call of a slot repeats the first one, so each ratio is
    taken over one call per slot and does not depend on how many ran.
    """
    one = {slot: calls[:1] for slot, calls in traced.items()}
    every = counters([c for calls in one.values() for c in calls])
    trees = counters(one["dimtree"] + one["sampled-dimtree"])
    auto = counters(one["auto"])
    sampled = counters(one["sampled-dimtree"])
    sampled_sweeps = sum(len(c.stamps) for c in one["sampled-dimtree"])
    return {
        "core.path_cache_hit_ratio": metric(
            hit_rate(every["path_cache.hit"], every["path_cache.miss"]), "ratio"
        ),
        "core.dimtree_partial_hit_ratio": metric(
            hit_rate(
                trees["dimtree.partial.hit"],
                trees["dimtree.partial.miss"] + trees["dimtree.partial.stale"],
            ),
            "ratio",
        ),
        "costmodel.auto_blocked_frac": metric(
            hit_rate(auto["dense_dispatch.blocked"], auto["dense_dispatch.einsum"]), "ratio"
        ),
        "backend.workspace_hit_ratio": metric(
            hit_rate(every["workspace.hit"], every["workspace.miss"]), "ratio"
        ),
        "sketch.draws_per_sweep": metric(
            sampled["sampler.draws"] / sampled_sweeps if sampled_sweeps else None, "draws"
        ),
        "sketch.distinct_ratio": metric(
            sampled["sampler.distinct"] / sampled["sampler.draws"]
            if sampled["sampler.draws"] else None,
            "ratio",
        ),
        "sketch.sampler_cache_hit_ratio": metric(
            hit_rate(sampled["sampler_cache.hit"], sampled["sampler_cache.rebuild"]), "ratio"
        ),
        "sketch.tree_builds_per_sweep": metric(
            sampled["treesample.tree_builds"] / sampled_sweeps if sampled_sweeps else None,
            "builds",
        ),
    }


def isolated_metrics(phase: Phase, untraced: Dict[str, List[Call]]) -> Dict[str, dict]:
    """Single kernel calls outside ALS on the default's final factors, median of 3."""
    workload = phase.workload
    tensor = phase.tensor
    default = phase.reference.get("default")
    if default is not None:
        factors = [np.ascontiguousarray(f) for f in default.model.factors]
    else:  # the default slot failed; time the kernels on seeded factors instead
        factors = random_factors(tensor.shape, workload.rank, seed=phase.seed)
    out: Dict[str, dict] = {
        "cp.numpy_sweep_ms": metric(
            median(c.numpy_sweep_ms for calls in untraced.values() for c in calls), "ms"
        )
    }

    times = {
        name: {m: isolated_ms(partial(fn, tensor, factors, m)) for m in PER_MODE}
        for name, fn in ISOLATED_KERNELS.items()
    }
    for name, values in times.items():
        out.update(per_mode(f"core.isolated_ms.{name}", values, "ms"))
    # What auto's dispatch costs against the better of its two choices.
    regret = {
        m: times["auto"][m] - min(times["einsum"][m], times["blocked"][m]) for m in PER_MODE
    }
    out.update(per_mode("costmodel.dispatch_regret_ms", regret, "ms"))

    algorithms = {
        "stationary": (stationary_mttkrp, choose_stationary_grid),
        "general": (general_mttkrp, choose_general_grid),
    }
    for name, (fn, choose_grid) in algorithms.items():
        grid = choose_grid(tensor.shape, workload.rank, ISOLATED_PROCS)
        values = {
            m: isolated_ms(lambda m=m: fn(tensor, factors, m, grid).assemble()) for m in PER_MODE
        }
        out.update(per_mode(f"parallel.isolated_ms.{name}", values, "ms"))

    rng = np.random.default_rng(phase.seed)
    sampler = KRPTreeSampler(factors, 0)
    draws = default_sample_count(workload.rank)
    out["sketch.tree_build_ms"] = metric(isolated_ms(partial(KRPTreeSampler, factors, 0)), "ms")
    out["sketch.tree_draw_ms"] = metric(
        isolated_ms(partial(sampler.draw_indices, draws, rng)), "ms"
    )

    # Two threads against the untraced one-thread median of the same slot.
    # auto's dispatch depends on the thread count, so its fits may differ
    # in the last bits: the reruns are held to the exact-slot rules.
    slot = workload.threaded_slot
    reruns = [phase.call(slot, threads=2) for _ in range(THREAD2_RERUNS)]
    passed = [c for c in reruns if c is not None and phase.check(c, repeat=False)]
    two = median(ms for c in passed for ms in c.steady_ms)
    one = median(ms for c in untraced[slot] for ms in c.steady_ms)
    out["backend.thread2_speedup"] = metric(one / two if one and two else None, "x")
    return out


def traced_phase(workload: Workload, seed: int, seconds: float, import_s: float) -> dict:
    """The per-layer metrics of one workload; ``import_s`` is the measured ``import repro``."""
    phase = Phase(workload, seed)
    phase.setup()
    untraced = phase.closed_loop(seconds / 2, phase.call)
    traced = phase.closed_loop(seconds / 2, lambda slot: traced_call(phase, slot))
    phase.check_sampled()

    metrics: Dict[str, dict] = {"cp.import_s": metric(import_s, "s")}
    for slot in SLOTS:
        metrics.update(slot_metrics(workload, slot, untraced[slot], traced[slot]))
        if slot in MACHINE_SLOTS:
            metrics.update(parallel_metrics(workload, slot, traced[slot]))
    metrics.update(workload_metrics(phase, traced))
    metrics.update(isolated_metrics(phase, untraced))
    return {
        "result": phase.result(dict(sorted(metrics.items()))),
        "fits": {slot: ref.fits for slot, ref in phase.reference.items()},
        "failures": phase.failures,
    }

