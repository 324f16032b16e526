"""Collective communication operations on the simulated machine.

The collectives really move data between rank-local numpy buffers (so the
parallel algorithms produce numerically exact results) and charge the
*bucket-algorithm* bandwidth cost used in the paper's analysis
(Section V-C3): a bucket All-Gather or Reduce-Scatter over ``q`` processors
proceeds in ``q - 1`` steps, in each of which every processor passes along an
array of at most ``w`` words, where ``w`` is the largest per-processor block
size — so every participating rank is charged ``(q - 1) * w`` words sent and
``(q - 1) * w`` words received.  A Reduce-Scatter additionally charges
``(q - 1) * w`` additions to each rank.

All collectives take the participating ``group`` (an ordered list of ranks —
ordering defines how blocks are concatenated / scattered) and a mapping from
rank to that rank's local buffer.

**Fault semantics** (ISSUE 10): before charging, every collective polls
``machine.consult_fault`` — a no-op on the base machine, a schedule match on
a :class:`~repro.resilience.machine.FaultyMachine`.  A dropped or corrupted
attempt is *re-driven* with exponential backoff (``2**attempt`` units): its
traffic really crossed the network, so it is charged to the main ledgers
*and* to the machine's retry ledgers under a ``<label>/retry`` record, and
the delivered payload is the intact re-driven one — results stay bitwise
fault-free while the ledger grows by exactly the charged retries (the
invariant :func:`repro.observe.drift.retry_ledger_drift` asserts).  A
``"delay"`` fault charges latency units and lets the payload through; a
``"rank-failure"`` raises :class:`~repro.exceptions.RankFailureError`
(recovery is checkpoint/restore at the driver).  Exhausting the machine's
``max_attempts`` raises :class:`~repro.exceptions.RetryExhaustedError`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import MachineError, RankFailureError, RetryExhaustedError
from repro.observe.instrument import inc as observe_inc, record_collective
from repro.parallel.machine import CommunicationRecord, SimulatedMachine
from repro.utils.partition import partition_bounds, partition_sizes


# ---------------------------------------------------------------------------
# cost helpers (exposed so the cost models and tests can reuse them verbatim)
# ---------------------------------------------------------------------------

def bucket_all_gather_cost(group_size: int, max_local_words: int) -> int:
    """Per-rank words sent (= received) by a bucket All-Gather: ``(q-1) * w``."""
    if group_size < 1:
        raise MachineError("group size must be >= 1")
    return (group_size - 1) * int(max_local_words)


def bucket_reduce_scatter_cost(group_size: int, max_result_words: int) -> int:
    """Per-rank words sent (= received) by a bucket Reduce-Scatter: ``(q-1) * w``."""
    if group_size < 1:
        raise MachineError("group size must be >= 1")
    return (group_size - 1) * int(max_result_words)


def bucket_all_reduce_cost(group_size: int, n_words: int) -> int:
    """Per-rank words sent (= received) by :func:`all_reduce` of ``n`` words.

    A Reduce-Scatter then an All-Gather of the ``ceil(n / q)``-word pieces:
    ``2 (q-1) * ceil(n / q)``.
    """
    if group_size < 1:
        raise MachineError("group size must be >= 1")
    piece = max(partition_sizes(int(n_words), group_size))
    return bucket_reduce_scatter_cost(group_size, piece) + bucket_all_gather_cost(
        group_size, piece
    )


def _drive_with_retries(
    machine: SimulatedMachine,
    kind: str,
    group: Sequence[int],
    label: str,
    charge_wasted_attempt: Callable[[int], None],
) -> None:
    """Poll the machine's fault hook until an attempt goes through.

    ``charge_wasted_attempt(backoff)`` charges one dropped/corrupted
    attempt's traffic (main + retry ledgers); this helper owns the shared
    retry policy — exponential backoff, the retry budget, delay charging,
    and rank-failure propagation — so the symmetric bucket collectives and
    the asymmetric root gather behave identically under faults.
    """
    attempt = 0
    while True:
        fault = machine.consult_fault(kind, label, group, attempt)
        if fault is None:
            return
        if fault.kind == "rank-failure":
            raise RankFailureError(
                f"rank failure injected into {kind} ({label!r}); "
                "recover from a checkpoint (repro.resilience.checkpoint)"
            )
        if fault.kind == "delay":
            for rank in group:
                machine.charge_delay(rank, fault.delay_units)
            observe_inc("retry.delay_units", int(fault.delay_units) * len(group))
            return
        # drop / corrupt: the attempt is wasted; charge it and re-drive.
        charge_wasted_attempt(2**attempt)
        observe_inc("retry.count")
        observe_inc("retry.backoff_units", 2**attempt)
        attempt += 1
        if attempt >= machine.max_attempts:
            raise RetryExhaustedError(
                f"{kind} ({label!r}) failed {attempt} times, exhausting the "
                f"retry budget of {machine.max_attempts} attempts"
            )


def _charge_group(
    machine: SimulatedMachine,
    kind: str,
    group: Sequence[int],
    words_per_rank: int,
    label: str,
) -> None:
    # Bucket algorithms proceed in q-1 steps; each step is one message per rank.
    messages = max(len(group) - 1, 0)

    def charge_wasted_attempt(backoff: int) -> None:
        for rank in group:
            machine.charge_retry(rank, words_per_rank, messages, backoff=backoff)
        machine.log(
            CommunicationRecord(
                kind=f"{kind}.retry",
                group=tuple(group),
                words_per_rank=words_per_rank,
                label=f"{label}/retry",
            )
        )
        record_collective(f"{kind}.retry", f"{label}/retry", len(group), words_per_rank, messages)

    _drive_with_retries(machine, kind, group, label, charge_wasted_attempt)
    for rank in group:
        machine.charge_send(rank, words_per_rank)
        machine.charge_receive(rank, words_per_rank)
        machine.charge_messages(rank, messages)
    machine.log(CommunicationRecord(kind=kind, group=tuple(group), words_per_rank=words_per_rank, label=label))
    record_collective(kind, label, len(group), words_per_rank, messages)


# ---------------------------------------------------------------------------
# collectives
# ---------------------------------------------------------------------------

def all_gather(
    machine: SimulatedMachine,
    group: Sequence[int],
    local_blocks: Dict[int, np.ndarray],
    *,
    axis: int = 0,
    label: str = "",
) -> Dict[int, np.ndarray]:
    """All-Gather: every rank in ``group`` receives the concatenation of all blocks.

    Parameters
    ----------
    machine:
        The simulated machine to charge.
    group:
        Ordered list of participating ranks; blocks are concatenated in this
        order.
    local_blocks:
        Mapping rank -> local block.  All blocks must agree on every axis
        except ``axis``.  Zero-sized blocks are allowed.
    axis:
        Concatenation axis.
    label:
        Trace label.

    Returns
    -------
    dict
        Mapping rank -> gathered array (each rank gets its own copy).
    """
    group = machine.check_group(group)
    missing = [r for r in group if r not in local_blocks]
    if missing:
        raise MachineError(f"all_gather: missing local blocks for ranks {missing}")
    blocks = [np.asarray(local_blocks[r]) for r in group]
    # A one-rank group's block is copied once, by the per-rank copy below.
    gathered = np.concatenate(blocks, axis=axis) if len(blocks) > 1 else blocks[0]
    max_local = max(int(b.size) for b in blocks)
    words = bucket_all_gather_cost(len(group), max_local)
    _charge_group(machine, "all_gather", group, words, label)
    return {rank: gathered.copy() for rank in group}


def reduce_scatter(
    machine: SimulatedMachine,
    group: Sequence[int],
    local_contributions: Dict[int, np.ndarray],
    *,
    axis: int = 0,
    label: str = "",
) -> Dict[int, np.ndarray]:
    """Reduce-Scatter: element-wise sum of the contributions, scattered by blocks.

    The summed array is split into ``len(group)`` balanced blocks along
    ``axis`` (first blocks get the extra rows when the extent does not divide
    evenly) and block ``i`` is delivered to the ``i``-th rank of ``group``.

    Returns
    -------
    dict
        Mapping rank -> its block of the reduced array.
    """
    group = machine.check_group(group)
    missing = [r for r in group if r not in local_contributions]
    if missing:
        raise MachineError(f"reduce_scatter: missing contributions for ranks {missing}")
    arrays = [np.asarray(local_contributions[r]) for r in group]
    shape = arrays[0].shape
    for arr in arrays[1:]:
        if arr.shape != shape:
            raise MachineError(
                f"reduce_scatter: contribution shapes differ ({arr.shape} vs {shape})"
            )
    total = arrays[0].copy()
    for arr in arrays[1:]:
        total += arr
    bounds = partition_bounds(shape[axis], len(group))
    out: Dict[int, np.ndarray] = {}
    max_result_words = 0
    slicer: List[slice] = [slice(None)] * total.ndim
    for (start, stop), rank in zip(bounds, group):
        slicer[axis] = slice(start, stop)
        piece = total[tuple(slicer)].copy()
        out[rank] = piece
        max_result_words = max(max_result_words, int(piece.size))
    words = bucket_reduce_scatter_cost(len(group), max_result_words)
    _charge_group(machine, "reduce_scatter", group, words, label)
    # The bucket Reduce-Scatter also performs (q-1) * w additions per rank.
    for rank in group:
        machine.charge_flops(rank, words)
    return out


def all_reduce(
    machine: SimulatedMachine,
    group: Sequence[int],
    local_contributions: Dict[int, np.ndarray],
    *,
    label: str = "",
) -> Dict[int, np.ndarray]:
    """All-Reduce: element-wise sum delivered in full to every rank.

    Implemented (and costed) as Reduce-Scatter followed by All-Gather, the
    standard bandwidth-optimal composition: per-rank cost
    ``2 (q - 1) * ceil(n / q)`` words for an ``n``-word array.
    """
    group = machine.check_group(group)
    arrays = {r: np.asarray(local_contributions[r]).ravel() for r in group}
    shapes = {r: np.asarray(local_contributions[r]).shape for r in group}
    shape0 = next(iter(shapes.values()))
    for r, s in shapes.items():
        if s != shape0:
            raise MachineError(f"all_reduce: contribution shapes differ ({s} vs {shape0})")
    scattered = reduce_scatter(machine, group, arrays, axis=0, label=label + "/rs")
    gathered = all_gather(machine, group, scattered, axis=0, label=label + "/ag")
    return {rank: gathered[rank].reshape(shape0) for rank in group}


def broadcast(
    machine: SimulatedMachine,
    group: Sequence[int],
    root: int,
    value: np.ndarray,
    *,
    label: str = "",
) -> Dict[int, np.ndarray]:
    """Broadcast ``value`` from ``root`` to every rank in ``group``.

    Costed as the bandwidth-optimal Scatter + All-Gather composition:
    ``2 (q - 1) * ceil(n / q)`` words per rank (``n`` = array size).
    """
    group = machine.check_group(group)
    root = machine.check_rank(root)
    if root not in group:
        raise MachineError(f"broadcast root {root} is not in the group {group}")
    value = np.asarray(value)
    q = len(group)
    chunk = -(-int(value.size) // q) if value.size else 0
    words = 2 * (q - 1) * chunk
    _charge_group(machine, "broadcast", group, words, label)
    return {rank: value.copy() for rank in group}


def gather_to_root(
    machine: SimulatedMachine,
    group: Sequence[int],
    root: int,
    local_blocks: Dict[int, np.ndarray],
    *,
    axis: int = 0,
    label: str = "",
) -> Optional[np.ndarray]:
    """Gather blocks to ``root`` only (used for collecting final results).

    The root receives everything (cost ``sum of other blocks`` received); the
    other ranks send their own block.  Returned array is only meaningful at
    the root; other ranks receive ``None``.
    """
    group = machine.check_group(group)
    root = machine.check_rank(root)
    if root not in group:
        raise MachineError(f"gather root {root} is not in the group {group}")
    blocks = [np.asarray(local_blocks[r]) for r in group]
    max_block = max(int(b.size) for b in blocks)

    def charge_wasted_attempt(backoff: int) -> None:
        # The gather's charging is asymmetric (root receives everything), and
        # so is a wasted attempt's: non-root ranks re-send their block, the
        # root re-receives it — charged on the main ledgers through the
        # normal paths and mirrored on the retry ledgers.
        for rank, block in zip(group, blocks):
            if rank == root:
                continue
            words = int(block.size)
            machine.charge_send(rank, words)
            machine.charge_receive(root, words)
            machine.retry_words_sent[rank] += words
            machine.retry_words_received[root] += words
        for rank in group:
            machine.backoff_units[rank] += int(backoff)
        machine.log(
            CommunicationRecord(
                kind="gather.retry",
                group=tuple(group),
                words_per_rank=max_block,
                label=f"{label}/retry",
            )
        )
        record_collective("gather.retry", f"{label}/retry", len(group), max_block, 0)

    _drive_with_retries(machine, "gather", group, label, charge_wasted_attempt)
    for rank, block in zip(group, blocks):
        if rank == root:
            continue
        machine.charge_send(rank, int(block.size))
        machine.charge_receive(root, int(block.size))
    machine.log(
        CommunicationRecord(
            kind="gather", group=tuple(group), words_per_rank=max_block, label=label
        )
    )
    return np.concatenate(blocks, axis=axis) if len(blocks) > 1 else blocks[0].copy()
