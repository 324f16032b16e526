"""ALS calls, sweep timing and correctness checks shared by both phases."""

from __future__ import annotations

import gc
import itertools
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

import repro
from repro.resilience import CheckpointStore
from workloads import EXACT_SLOTS, MACHINE_SLOTS, NOISE_LEVEL, SLOTS, Workload

#: Exact slots must reproduce the ``default`` fits to this absolute tolerance.
EXACT_FIT_TOL = 1e-8

#: One sampled sweep may lose at most this much fit against one exact sweep
#: taken from the same factors.
SAMPLED_FIT_SLACK = 0.05


@dataclass
class SweepClock(CheckpointStore):
    """A checkpoint store that never saves: ``wants()`` stamps a sweep boundary.

    Both drivers call ``wants()`` once after every sweep's fit, so the stamps
    split a call into sweeps while the program runs unchanged.
    """

    stamps: List[float] = field(default_factory=list)

    def wants(self, iteration: int) -> bool:
        self.stamps.append(time.perf_counter())
        return False


class NumpySweep:
    """One MTTKRP per mode of a tensor in plain numpy: the host's yardstick.

    The host's memory bandwidth drifts by a fifth between minutes, and every
    slot's sweep moves with it.  This sweep runs no ``repro`` code, makes
    an einsum MTTKRP per mode of the same tensor, and is timed right after
    every call of the closed loop.  A sweep divided by the median of its
    round's numpy sweeps keeps the slot's cost and drops most of the host's
    drift.
    """

    def __init__(self, tensor: np.ndarray, rank: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        letters = "abcdefghij"[: tensor.ndim]
        factors = [rng.standard_normal((n, rank)) for n in tensor.shape]
        self.tensor = tensor
        self.contractions = []
        for mode in range(tensor.ndim):
            others = [m for m in range(tensor.ndim) if m != mode]
            subscripts = (
                letters + "," + ",".join(letters[m] + "z" for m in others)
                + "->" + letters[mode] + "z"
            )
            operands = [factors[m] for m in others]
            path = np.einsum_path(subscripts, tensor, *operands, optimize="greedy")[0]
            self.contractions.append((subscripts, operands, path))

    def __call__(self) -> float:
        """Milliseconds of one sweep."""
        start = time.perf_counter()
        for subscripts, operands, path in self.contractions:
            np.einsum(subscripts, self.tensor, *operands, optimize=path)
        return (time.perf_counter() - start) * 1e3


@dataclass
class Call:
    """One ALS call: when it started, its sweep stamps, and its outputs."""

    slot: str
    start: float
    stamps: List[float]
    fits: List[float]
    #: Max-per-rank words of each sweep (machine slots only).
    words: List[int]
    model: Any
    #: The driver's own result object.
    result: Any
    #: Problems found before the common checks (the traced phase's own).
    problems: List[str] = field(default_factory=list)
    #: The trace session and kernel timings of a traced call.
    session: Any = None
    log: Any = None
    #: Median milliseconds of the numpy sweeps of the call's round.
    numpy_sweep_ms: float = 0.0

    @property
    def first_ms(self) -> float:
        """Milliseconds from the call to the end of sweep 1."""
        return (self.stamps[0] - self.start) * 1e3

    @property
    def steady_ms(self) -> List[float]:
        """Milliseconds of sweeps 2..n."""
        return [(b - a) * 1e3 for a, b in zip(self.stamps, self.stamps[1:])]

    @property
    def first_rel(self) -> float:
        """``first_ms`` in numpy sweeps."""
        return self.first_ms / self.numpy_sweep_ms

    @property
    def steady_rel(self) -> List[float]:
        """``steady_ms`` in numpy sweeps."""
        return [ms / self.numpy_sweep_ms for ms in self.steady_ms]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median(values) -> Optional[float]:
    values = list(values)
    return float(statistics.median(values)) if values else None


class Phase:
    """Input, ALS calls and correctness bookkeeping of one workload phase."""

    def __init__(self, workload: Workload, seed: int, slots: Sequence[str] = SLOTS) -> None:
        self.workload = workload
        self.seed = seed
        self.init_seed = seed + 1
        #: The slots this phase warms up and runs in its closed loop.
        self.slots = tuple(slots)
        self.tensor: Optional[np.ndarray] = None
        self.numpy_sweep: Optional[NumpySweep] = None
        self.norm_sq = 0.0
        self.attempted = 0
        self.failures: List[str] = []
        #: The first call of each slot that passed its checks.
        self.reference: Dict[str, Call] = {}

    # -- input and setup -----------------------------------------------------
    def setup(self) -> None:
        """Make the input and warm each of the phase's slots with a two-sweep call.

        The warm-up pays einsum path planning, lazy imports and executor
        start before anything is timed.
        """
        self.tensor = repro.noisy_low_rank_tensor(
            self.workload.shape,
            self.workload.rank,
            noise_level=NOISE_LEVEL,
            seed=self.seed,
        ).data
        self.norm_sq = float(np.vdot(self.tensor, self.tensor))
        self.numpy_sweep = NumpySweep(self.tensor, self.workload.rank, self.seed)
        self.numpy_sweep()
        for slot in self.slots:
            self.call(slot, sweeps=2)

    # -- ALS calls -----------------------------------------------------------
    def invoke(self, slot: str, sweeps: int, clock: SweepClock, **options):
        """One ALS call of ``slot``; returns ``(CPALSResult, words, result)``."""
        kwargs = dict(
            n_iter_max=sweeps,
            tol=0.0,
            seed=self.init_seed,
            checkpoint_store=clock,
            **options,
        )
        if slot != "default":
            kwargs["kernel"] = slot
        if self.workload.procs and slot in MACHINE_SLOTS:
            run = repro.parallel_cp_als(
                self.tensor, self.workload.rank, self.workload.procs, **kwargs
            )
            return run.als, [int(w) for w in run.words_per_iteration], run
        als = repro.cp_als(self.tensor, self.workload.rank, **kwargs)
        return als, [], als

    def call(self, slot: str, *, sweeps: Optional[int] = None, **options) -> Optional[Call]:
        """Make one timed ALS call; a call that raises is counted as failed."""
        self.attempted += 1
        clock = SweepClock()
        gc.collect()
        start = time.perf_counter()
        try:
            als, words, result = self.invoke(
                slot, sweeps or self.workload.sweeps[slot], clock, **options
            )
        except Exception:  # noqa: BLE001 - every failed operation is counted
            self.fail(f"{slot}: raised\n{traceback.format_exc()}")
            return None
        return Call(slot, start, clock.stamps, list(als.fits), words, als.model, result)

    # -- correctness ---------------------------------------------------------
    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"[bench] {self.workload.name}: FAILED {message}", file=sys.stderr)

    def true_fit(self, model) -> float:
        """Fit of a CP model from one exact einsum MTTKRP, no slot kernel involved."""
        factors, weights = model.factors, model.weights
        last = self.tensor.ndim - 1
        b = repro.mttkrp(self.tensor, factors, last)
        inner = float(np.sum(b * (factors[last] * weights[None, :])))
        gram = np.ones((weights.size, weights.size))
        for factor in factors:
            gram = gram * (factor.T @ factor)
        residual_sq = max(self.norm_sq + float(weights @ gram @ weights) - 2.0 * inner, 0.0)
        return 1.0 - float(np.sqrt(residual_sq / self.norm_sq))

    def problems(self, call: Call, *, repeat: bool = True) -> List[str]:
        """What is wrong with a call.

        A ``repeat`` makes the same call as its slot's first one and must
        match it bitwise.  Any other call is checked on its own: an exact
        slot must report the fit of the model it returns and reproduce the
        ``default`` fits.
        """
        found = list(call.problems)
        reference = self.reference.get(call.slot)
        if repeat and reference is not None:
            # Same seed, same input: a repeat must be bitwise identical.
            if call.fits != reference.fits:
                found.append("fits differ bitwise from the slot's first call")
            if call.words != reference.words:
                found.append(f"words per sweep {call.words} != {reference.words}")
            return found
        if not call.fits or len(call.stamps) != len(call.fits):
            found.append(f"{len(call.stamps)} sweep stamps for {len(call.fits)} fits")
        elif not np.all(np.isfinite(call.fits)):
            found.append("non-finite fit")
        elif call.slot in EXACT_SLOTS:
            fit = self.true_fit(call.model)
            if abs(fit - call.fits[-1]) > EXACT_FIT_TOL:
                found.append(f"reported fit {call.fits[-1]!r} but the model's fit is {fit!r}")
            default = self.reference.get("default")
            if default is not None:
                gap = max(abs(a - b) for a, b in zip(call.fits, default.fits))
                if gap > EXACT_FIT_TOL:
                    found.append(f"fits differ from default by {gap:.3g}")
        return found

    def check(self, call: Call, *, repeat: bool = True) -> bool:
        """Hold a call to the benchmark's rules; count it as failed if it breaks one."""
        found = self.problems(call, repeat=repeat)
        if found:
            self.fail(f"{call.slot}: " + "; ".join(found))
            return False
        self.reference.setdefault(call.slot, call)
        return True

    def check_sampled(self) -> None:
        """One sampled sweep against one exact sweep from the default's final factors.

        Sampled and exact runs from a random start follow different
        trajectories, so their fits are compared from a common start.
        """
        default = self.reference.get("default")
        if default is None:
            return
        start = [np.array(f) for f in default.model.factors]
        exact = self.call("default", sweeps=1, init=start)
        sampled = self.call("sampled-dimtree", sweeps=1, init=start)
        if exact is None or sampled is None:
            return
        gap = self.true_fit(sampled.model) - self.true_fit(exact.model)
        if gap < -SAMPLED_FIT_SLACK:
            self.fail(f"sampled-dimtree: one sweep loses {-gap:.4f} fit to one exact sweep")

    # -- the closed loop -----------------------------------------------------
    def closed_loop(
        self, seconds: float, run_call: Callable[[str], Optional[Call]]
    ) -> Dict[str, List[Call]]:
        """Calls from one client, each after the previous returns, for ``seconds``.

        Slots alternate ABCD, DCBA, ...  Each call is followed by one
        :class:`NumpySweep`, and a call's ``numpy_sweep_ms`` is the median
        of its round's.  The first round always runs; after it, a call
        starts only if its slot's previous call and numpy sweep would still
        end in time.  Returns the calls that passed their checks, per slot.
        """
        calls: Dict[str, List[Call]] = {slot: [] for slot in self.slots}
        last: Dict[str, float] = {}
        begin = time.perf_counter()
        for round_index in itertools.count():
            order = self.slots if round_index % 2 == 0 else self.slots[::-1]
            passed: List[Call] = []
            numpy_sweeps: List[float] = []
            for slot in order:
                if round_index and time.perf_counter() - begin + last[slot] > seconds:
                    break
                started = time.perf_counter()
                call = run_call(slot)
                numpy_sweeps.append(self.numpy_sweep())
                if call is not None and self.check(call):
                    passed.append(call)
                last[slot] = time.perf_counter() - started
            for call in passed:
                call.numpy_sweep_ms = statistics.median(numpy_sweeps)
                calls[call.slot].append(call)
            if len(numpy_sweeps) < len(order):
                return calls
        raise AssertionError("unreachable")

    def result(self, metrics: Dict[str, dict]) -> dict:
        """The benchmark's result object for these metrics."""
        failed = len(self.failures)
        complete = all(m["value"] is not None for m in metrics.values())
        return {
            "correct": failed == 0 and complete,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": metrics,
        }
