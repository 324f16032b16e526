"""Dimension-tree MTTKRP engine: cached partial contractions across ALS sweeps.

The one dimension tree of the package, and it serves the ALS sweep.  Inside
CP-ALS the factors change between mode updates (Section VII of the paper
leaves the scheduling of that cross-mode reuse as future work), and
:class:`DimensionTree` keeps the tree's internal nodes — partial
contractions of the tensor with the Khatri-Rao product of an excluded mode
subset — *cached across calls* and serves every mode's MTTKRP from the
deepest still-valid ancestor.  A node keeps the factor arrays it was built
from and is valid exactly while the call passes those same objects, so it
goes stale when the driver replaces a factor it consumed: array identity
is the one staleness rule of every factor-dependent cache in the package
(the fused kernels' sampler caches and the distributed kernels' gathered
blocks follow it too).  Before it serves mode ``m`` it drops
every cached node whose key lacks ``m``: the update that follows the read
replaces factor ``m`` and so stales those nodes, and none of them lies on
the leaf's path.

Every node splits its mode set in half.  Under the ALS update order (modes
``0, 1, ..., N-1``, each factor replaced right after its solve) the tree
recomputes each non-root node exactly once per sweep, the cold first sweep
included: the full tensor is contracted only at the two root children, so
per-sweep MTTKRP flops and tensor reads drop from ``N`` full contractions to
``2`` (plus lower-order subtree work) — the classic order-``N/2`` ALS
speedup.  With the cache off the tree is the comb instead (each node peels
off its last mode), and every call runs its own root-to-leaf chain: the
``N`` independent single-mode kernels the tree is measured against.

Each root child is built with :func:`repro.core.kernels.gemm_mttkrp`, one
BLAS GEMM between a free reshape of the tensor and the Khatri-Rao product of
the modes it removes (the fast-gradient form of Phan, Tichavský and
Cichocki, arXiv 1204.1586, that Tensor Toolbox's ``mttkrp`` uses), when the
removed modes are one contiguous block of a C-contiguous tensor and ``R`` is
at most both the kept and the removed extent products; every other node
contracts one mode at a time.  :func:`repro.core.kernels.dense_mttkrp`
(the local step of the blocked and parallel algorithms) runs a single
MTTKRP with the same GEMM where einsum's path would copy the tensor.  The
ledger charges every node recomputation as that single-mode chain (flops,
words moved in a flat read-everything model, root-tensor reads) whichever
way it ran, so the GEMM step is counted as the chain it replaces and the
paper-facing frontiers keep their numbers.  :func:`dimtree_sweep_cost`
sums the same per-node charges over the tree, so the modelled per-sweep
cost equals the counted ledger exactly — the tests assert ``==``, not
``<=``.  Counting conventions (shared by executor and model):

* contracting one mode of extent ``I_k`` out of a partial with uncontracted
  extent product ``T`` costs ``2 T R`` flops (the GEMM/einsum multiply-add
  count of the Eq. (17) association);
* the same step moves ``T`` (or ``T R`` once the rank axis exists) words of
  input partial, ``I_k R`` words of factor, and ``(T / I_k) R`` words of
  output.

:class:`DimensionTreeKernel` runs the tree as the sweep kernel ``"dimtree"``:
it builds the tree on a run's tensor, marks the sweeps and restores a
checkpoint lazily.  Two subclasses keep that lifecycle.  The fused sampled
kernel of :mod:`repro.core.sampled_dimtree` replaces only the step.
:class:`MultiSweepTreeKernel`, ``"msdt"`` (also named ``"auto"``) and the
``cp_als`` default, also reuses partials *across* sweeps on a 3-way
tensor: each tensor read builds a two-mode node that serves two
consecutive updates, which may belong to two sweeps, so a sweep reads the
tensor ``3/2`` times on average instead of ``2``;
:func:`multisweep_sweep_costs` is its replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels import contract_mode_step, gemm_mttkrp
from repro.core.sweep_kernel import SweepKernel
from repro.exceptions import ParameterError
from repro.observe.instrument import add_cost, inc as observe_inc
from repro.tensor.dense import as_ndarray
from repro.utils.validation import (
    check_factor_matrices,
    check_mode,
    check_positive_int,
    check_rank,
    check_shape,
)

@dataclass(frozen=True)
class SweepCost:
    """Counted cost of dimension-tree work (one sweep, or a running total).

    Attributes
    ----------
    contractions:
        Single-mode contraction steps performed.
    flops:
        Multiply-add arithmetic, ``2 T R`` per step.
    words:
        Words moved in the flat model (partial in + factor + partial out).
    root_reads:
        Contraction steps whose input was the full tensor (each reads all
        ``I`` tensor words; the tree's headline saving is ``2`` per sweep
        versus ``N`` for independent kernels).
    """

    contractions: int = 0
    flops: int = 0
    words: int = 0
    root_reads: int = 0

    def __add__(self, other: "SweepCost") -> "SweepCost":
        return SweepCost(
            contractions=self.contractions + other.contractions,
            flops=self.flops + other.flops,
            words=self.words + other.words,
            root_reads=self.root_reads + other.root_reads,
        )

    def __sub__(self, other: "SweepCost") -> "SweepCost":
        return SweepCost(
            contractions=self.contractions - other.contractions,
            flops=self.flops - other.flops,
            words=self.words - other.words,
            root_reads=self.root_reads - other.root_reads,
        )

    def to_dict(self) -> dict:
        """Plain-dict form (for JSON frontiers)."""
        return {
            "contractions": self.contractions,
            "flops": self.flops,
            "words": self.words,
            "root_reads": self.root_reads,
        }


# ---------------------------------------------------------------------------
# tree structure (shared by the executor and the cost model)
# ---------------------------------------------------------------------------

def _build_parents(
    n_modes: int, *, chain: bool = False
) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
    """Map each non-root node (sorted mode tuple) to its parent node.

    Every node splits its modes in half, or with ``chain`` peels off its
    last mode (the comb, whose root-to-leaf paths contract the other modes
    one at a time in descending order).
    """
    parents: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    def recurse(modes: Tuple[int, ...]) -> None:
        if len(modes) == 1:
            return
        cut = len(modes) - 1 if chain else len(modes) // 2
        for child in (modes[:cut], modes[cut:]):
            parents[child] = modes
            recurse(child)

    recurse(tuple(range(n_modes)))
    return parents


def _step_cost(
    uncontracted_dims: Sequence[int], extent: int, rank: int, has_rank: bool
) -> Tuple[int, int]:
    """(flops, words) of contracting one mode of ``extent`` out of a partial."""
    total = 1
    for dim in uncontracted_dims:
        total *= int(dim)
    flops = 2 * total * rank
    in_words = total * (rank if has_rank else 1)
    out_words = (total // int(extent)) * rank
    words = in_words + int(extent) * rank + out_words
    return flops, words


def _recompute_cost(
    shape: Sequence[int], parent_key: Tuple[int, ...], key: Tuple[int, ...], rank: int
) -> SweepCost:
    """Counted cost of recomputing node ``key`` from its parent ``parent_key``.

    The charge is the single-mode chain, which contracts the modes the node
    removes out of the parent one at a time in descending order, whichever
    way the engine runs the step.
    """
    dims = [int(shape[k]) for k in parent_key]
    modes = list(parent_key)
    has_rank = len(parent_key) < len(shape)  # only the root has no rank axis
    cost = SweepCost(root_reads=0 if has_rank else 1)
    for k in sorted(set(parent_key) - set(key), reverse=True):
        axis = modes.index(k)
        flops, words = _step_cost(dims, dims[axis], rank, has_rank)
        cost = cost + SweepCost(contractions=1, flops=flops, words=words)
        has_rank = True
        dims.pop(axis)
        modes.pop(axis)
    return cost


# ---------------------------------------------------------------------------
# the executable engine
# ---------------------------------------------------------------------------

class DimensionTree:
    """Cached dimension-tree MTTKRP over one fixed tensor.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor (``N >= 2``); the tree is bound to it.
    cache:
        When ``False``, no partial is ever stored and the tree is the comb:
        every call recomputes its root-to-leaf chain, which contracts the
        other modes one at a time — exactly the per-mode independent-kernel
        baseline under identical counting conventions.

    Notes
    -----
    Staleness is *array identity*, the one rule of every factor-dependent
    cache in the package: each cached node keeps the factor arrays of the
    modes it has contracted, and it is served exactly while the call passes
    those same objects.  A new array stales every node built from its
    predecessor, even when the two are equal in value; an array changed in
    place is not seen, so callers replace factor matrices (as CP-ALS does)
    rather than mutate them.  :meth:`invalidate_all` drops every node.

    The tree serves the ALS update order, where factor ``m`` is replaced
    right after mode ``m``'s read, so :meth:`mttkrp` drops every cached node
    whose key lacks ``m`` before that read.  A caller that serves several
    modes from unchanged factors gets the same bytes, but recomputes the
    dropped nodes.

    Each child of the root runs as one GEMM against the Khatri-Rao product
    of the modes it removes when those modes are a leading or trailing block
    of a C-contiguous tensor and ``R`` is at most both the kept and the
    removed extent products; otherwise it runs the single-mode chain, as
    every other node does.  The counters charge the chain either way, so
    the ledger equals :func:`dimtree_sweep_cost` on both paths.
    """

    def __init__(self, tensor, *, cache: bool = True) -> None:
        self._data = as_ndarray(tensor)
        if self._data.ndim < 2:
            raise ParameterError("DimensionTree requires a tensor with at least 2 modes")
        self._n = self._data.ndim
        self._cache_enabled = bool(cache)
        self._parents = _build_parents(self._n, chain=not cache)
        self._root_key = tuple(range(self._n))
        #: The factor arrays of the latest call, which cached nodes must match.
        self._factors: List[Optional[np.ndarray]] = [None] * self._n
        #: node key -> (data, modes, has_rank, the complement's factor arrays)
        self._cache: Dict[Tuple[int, ...], Tuple[np.ndarray, Tuple[int, ...], bool, tuple]] = {}
        self.contractions = 0
        self.flops = 0
        self.words = 0
        self.root_reads = 0

    # -- bookkeeping ---------------------------------------------------------
    @property
    def n_modes(self) -> int:
        """Number of tensor modes ``N``."""
        return self._n

    @property
    def tensor(self) -> np.ndarray:
        """The tensor the tree is bound to."""
        return self._data

    def counters(self) -> SweepCost:
        """Running totals of the counted contraction work."""
        return SweepCost(
            contractions=self.contractions,
            flops=self.flops,
            words=self.words,
            root_reads=self.root_reads,
        )

    def cached_words(self) -> int:
        """Words held by cached partials (the memory the tree trades for reuse)."""
        return sum(int(entry[0].size) for entry in self._cache.values())

    def register_factors(
        self, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> int:
        """Validate the factor list for ``mode``, keep it, and return the rank.

        Shared entry point of :meth:`mttkrp` and the fused sampled kernels:
        checks shapes and takes the factor arrays the cached nodes are
        compared with.
        """
        mode = check_mode(mode, self._n)
        if len(factors) != self._n:
            raise ParameterError(
                f"expected {self._n} factor matrices, got {len(factors)}"
            )
        rank = None
        for k, f in enumerate(factors):
            if k == mode:
                continue
            if f is None:
                raise ParameterError(f"factor matrix for mode {k} is required")
            if rank is None:
                rank = int(np.asarray(f).shape[1])
        if rank is None:
            raise ParameterError("at least one input factor matrix is required")
        check_factor_matrices(factors, self._data.shape, rank, skip_mode=mode)
        for k in range(self._n):
            if k != mode:
                self._factors[k] = factors[k]
        return rank

    def invalidate_all(self) -> None:
        """Drop every cached partial (fault recovery)."""
        self._cache.clear()
        observe_inc("recovery.invalidate")

    def capture_state(self) -> dict:
        """The cache and the counters for bitwise resume, by reference.

        Each cached node holds the factor arrays it was built from, and the
        checkpoint copies them in one deep copy with the driver's factors,
        so a node built from the driver's current factors still hits after
        a resume and one built from a since-replaced factor still misses.
        The copy also keeps each partial's memory layout (a trailing root
        child is a transposed GEMM product), so the einsums that consume it
        after a resume sum in the same order as before.
        """
        return {
            "cache": self._cache,
            "counters": (self.contractions, self.flops, self.words, self.root_reads),
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a snapshot: its partials and counters."""
        self._cache = state["cache"]
        self.contractions, self.flops, self.words, self.root_reads = state["counters"]

    def leaf_parent(self, mode: int) -> Tuple[int, ...]:
        """Mode set of the parent node of leaf ``(mode,)`` (the root for ``N = 2``)."""
        mode = check_mode(mode, self._n)
        if self._n == 1:  # pragma: no cover - excluded by the constructor
            raise ParameterError("a 1-mode tree has no leaf parents")
        return self._parents[(mode,)]

    def node_value(self, key: Tuple[int, ...]):
        """Materialize (and cache) the partial at ``key``; charge any recomputation.

        Returns ``(data, modes, has_rank)`` exactly as the internal walk
        does; for the root this is the raw tensor with no rank axis.  The
        node's complement factors must have been passed to
        :meth:`register_factors` beforehand.
        """
        key = tuple(sorted(int(k) for k in key))
        if key != self._root_key and key not in self._parents:
            raise ParameterError(f"{key} is not a node of this dimension tree")
        return self._value(key)

    # -- the kernel ----------------------------------------------------------
    def mttkrp(self, factors: Sequence[Optional[np.ndarray]], mode: int) -> np.ndarray:
        """MTTKRP for ``mode`` with the given factors, reusing valid partials.

        The update that follows the read replaces factor ``mode``, which
        stales every cached node whose key lacks ``mode``.  No such node
        lies on the leaf's path, so they are dropped before the read rather
        than held through it.
        """
        mode = check_mode(mode, self._n)
        self.register_factors(factors, mode)
        for key in [key for key in self._cache if mode not in key]:
            del self._cache[key]
        value, _, _ = self._value((mode,))
        return value.copy()  # one copy, C-ordered whatever the leaf's layout

    def derive(self, key: Tuple[int, ...], parent_key: Tuple[int, ...]) -> np.ndarray:
        """Contract node ``key`` out of ``parent_key`` and charge the step.

        ``parent_key`` is the root or a node, whose partial is served from
        the cache when valid and otherwise recomputed and cached; the
        result itself is not cached.  Both keys are sorted mode tuples, and
        a node outside the halving tree hangs off the root: the multi-sweep
        kernel serves its two-mode nodes this way.
        """
        data, modes, has_rank = self._value(parent_key)
        removed = [k for k in parent_key if k not in key]
        rank = int(np.asarray(self._factors[removed[0]]).shape[1])
        out = None
        if parent_key == self._root_key:
            out = gemm_mttkrp(self._data, self._factors, key, rank)
            observe_inc("dimtree.root.chain" if out is None else "dimtree.root.gemm")
        if out is None:
            out = self._contract_chain(data, modes, removed, has_rank)
        # A GEMM step is charged as the single-mode chain it replaces.
        self._charge(_recompute_cost(self._data.shape, parent_key, key, rank))
        return out

    def drop_partials(self) -> None:
        """Drop every cached partial (the multi-sweep kernel's per-node drop)."""
        self._cache.clear()

    # -- internals -----------------------------------------------------------
    def _value(self, key: Tuple[int, ...]):
        if key == self._root_key:
            return self._data, self._root_key, False
        built_from = tuple(self._factors[k] for k in range(self._n) if k not in key)
        entry = self._cache.get(key)
        if entry is not None and all(a is b for a, b in zip(entry[3], built_from)):
            observe_inc("dimtree.partial.hit")
            return entry[0], entry[1], entry[2]
        observe_inc("dimtree.partial.stale" if entry is not None else "dimtree.partial.miss")
        out = self.derive(key, self._parents.get(key, self._root_key))
        if self._cache_enabled:
            self._cache[key] = (out, key, True, built_from)
        return out, key, True

    def _contract_chain(
        self, data: np.ndarray, modes: Sequence[int], removed: Sequence[int], has_rank: bool
    ) -> np.ndarray:
        """Contract ``removed`` out of ``data`` one mode at a time, last mode first."""
        modes = list(modes)
        for k in sorted(removed, reverse=True):
            axis = modes.index(k)
            data = contract_mode_step(data, axis, np.asarray(self._factors[k]), has_rank)
            has_rank = True
            modes.pop(axis)
        return data

    def _charge(self, cost: SweepCost) -> None:
        self.contractions += cost.contractions
        self.flops += cost.flops
        self.words += cost.words
        self.root_reads += cost.root_reads
        add_cost(flops=cost.flops, words=cost.words)


# ---------------------------------------------------------------------------
# the exact cost model of an ALS sweep
# ---------------------------------------------------------------------------

def dimtree_sweep_cost(shape: Sequence[int], rank: int, *, cache: bool = True) -> SweepCost:
    """Counted cost of every ALS sweep of the dimension-tree engine.

    Under the ALS update order (mode ``0..N-1``, factor replaced after each
    solve) the cached tree recomputes each non-root node once per sweep,
    the cold first sweep included, so a sweep costs the sum of the nodes'
    recomputations and the engine's counted ledger of each sweep equals it
    exactly.  ``cache=False`` costs the comb with no cache: each call
    recomputes every node on its root-to-leaf path, so a node of ``m``
    modes is recomputed ``m`` times per sweep — the ``N`` independent
    per-mode chains.
    """
    shape = check_shape(shape, min_ndim=2)
    rank = check_rank(rank)
    parents = _build_parents(len(shape), chain=not cache)
    return sum(
        (
            _recompute_cost(shape, parent, key, rank)
            for key, parent in parents.items()
            for _ in range(1 if cache else len(key))
        ),
        SweepCost(),
    )


# ---------------------------------------------------------------------------
# the sweep-aware kernel
# ---------------------------------------------------------------------------

class DimensionTreeKernel(SweepKernel):
    """Sweep-aware MTTKRP kernel backed by a :class:`DimensionTree`.

    Registered in :data:`repro.cp.als.KERNEL_NAMES` as ``"dimtree"``.  The
    tree is built lazily on the first call and rebuilt if a different tensor
    object is passed (one kernel instance serves one ALS run at a time).
    The tree's nodes go stale by array identity alone, so the kernel needs
    no word from the driver about replaced factors.  Each read of mode ``m``
    is :meth:`DimensionTree.mttkrp`, which first drops the cached nodes
    that the update of factor ``m`` stales.

    With ``cache=False`` the kernel degenerates to ``N`` independent
    per-mode contraction chains with identical counting — the measured
    baseline the benchmarks compare the tree against.

    The fused sampled kernel
    (:class:`~repro.core.sampled_dimtree.SampledDimtreeKernel`) and the
    multi-sweep kernel (:class:`MultiSweepTreeKernel`) are subclasses: they
    keep the tree lifecycle defined here — the (re)build on a new tensor,
    the sweep marks, the lazy checkpoint restore.  The fused kernel extends
    :meth:`counters`, :meth:`_reset_run_state` and :meth:`_apply_pending`
    with its own state.
    """

    def __init__(self, *, cache: bool = True) -> None:
        self._cache = bool(cache)
        self.tree: Optional[DimensionTree] = None
        self._sweep_marks: List[SweepCost] = []
        self._pending_state: Optional[dict] = None

    def begin_sweep(self, iteration: int) -> None:
        self._sweep_marks.append(self.counters())

    # -- checkpoint/restore ---------------------------------------------------
    def capture_state(self) -> Optional[dict]:
        """Tree cache + counters (``None`` before the first call)."""
        if self.tree is None:
            return None
        return {"kind": self.state_kind, "tree": self.tree.capture_state()}

    def restore_state(self, state: Optional[dict]) -> None:
        """Check and stash a snapshot; applied inside the next :meth:`mttkrp` call.

        The application is lazy because the tree is built on the tensor,
        which only arrives with the call.
        """
        if state is not None:
            self.check_state(state)
        self._pending_state = state

    def invalidate_caches(self) -> bool:
        if self.tree is None:
            return False
        self.tree.invalidate_all()
        return True

    def _bind(self, data: np.ndarray) -> None:
        """Build the tree on ``data`` unless bound to it; apply a stashed snapshot."""
        rebuild = self.tree is None or self.tree.tensor is not data
        if rebuild:
            self.tree = DimensionTree(data, cache=self._cache)
            self._reset_run_state()
        restore = self._pending_state is not None
        if restore:
            # Applied whether or not the tree was rebuilt, so a resume on the
            # instance still bound to this tensor restarts from the snapshot.
            self._apply_pending()
            self._pending_state = None
        if rebuild or restore:
            # A new counter stream: marks taken against the earlier totals
            # would make per-sweep deltas wrong (negative after a rebuild).
            # Re-open the sweep the driver already announced at the current
            # totals, zero or restored; earlier runs' sweeps are dropped.
            self._sweep_marks = [self.counters()] if self._sweep_marks else []

    def _reset_run_state(self) -> None:
        """Restart whatever a subclass keeps beside the tree (a new tree, a new run)."""

    def _apply_pending(self) -> None:
        """Adopt the stashed snapshot into the freshly built tree."""
        self.tree.restore_state(self._pending_state["tree"])

    def mttkrp(
        self, tensor, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> np.ndarray:
        """The halving tree's MTTKRP of ``mode``."""
        data = as_ndarray(tensor)
        self._bind(data)
        return self.tree.mttkrp(factors, mode)

    def counters(self) -> SweepCost:
        """Running totals over every sweep served so far."""
        return self.tree.counters() if self.tree is not None else SweepCost()

    def per_sweep_costs(self) -> List[SweepCost]:
        """Counted cost of each completed sweep (driver must call the hooks)."""
        if not self._sweep_marks:
            return []
        marks = self._sweep_marks + [self.counters()]
        return [later - earlier for earlier, later in zip(marks, marks[1:])]


# ---------------------------------------------------------------------------
# the multi-sweep dimension tree of a 3-way tensor
# ---------------------------------------------------------------------------

#: The root of a 3-way tensor, off which the multi-sweep nodes hang.
_ROOT_3WAY = (0, 1, 2)


def _runs_multisweep(shape: Sequence[int], rank: int) -> bool:
    """Whether the multi-sweep schedule serves a tensor of ``shape`` at ``rank``.

    A node that removes an extent below ``R`` is larger than the tensor, so
    serving two updates from it costs more than a second tensor read: at
    600x600x12, R=16 a steady sweep took 119 ms against the halving tree's
    16 ms (one BLAS thread on a 2-CPU host).
    """
    return len(shape) == 3 and rank <= min(shape)


def _multisweep_node(update: int) -> Optional[Tuple[int, ...]]:
    """The two-mode node that serves ``update``, or ``None`` for update 0.

    Odd update ``t`` builds node ``{t mod 3, (t + 1) mod 3}`` and is served
    from it, and so is update ``t + 1``; update 0 reads the tensor itself.
    """
    if update == 0:
        return None
    first = update if update % 2 else update - 1
    return tuple(sorted((first % 3, (first + 1) % 3)))


def multisweep_sweep_costs(shape: Sequence[int], rank: int, n_sweeps: int) -> List[SweepCost]:
    """Counted cost of each of the first ``n_sweeps`` sweeps of ``"msdt"``.

    The replay of :class:`MultiSweepTreeKernel`, with the same per-step
    charges as :func:`dimtree_sweep_cost`: on a 3-way shape with ``R`` at
    most every extent sweep 1 costs what a halving-tree sweep costs, and
    from sweep 2 on the sweeps alternate two full-tensor reads and one.  A
    shape the schedule declines costs :func:`dimtree_sweep_cost` every
    sweep.  The kernel's counted ledger equals this list exactly, whatever
    the tensor's layout.
    """
    shape = check_shape(shape, min_ndim=2)
    rank = check_rank(rank)
    n_sweeps = check_positive_int(n_sweeps, "n_sweeps", minimum=0)
    if not _runs_multisweep(shape, rank):
        return [dimtree_sweep_cost(shape, rank)] * n_sweeps
    costs = []
    for sweep in range(n_sweeps):
        cost = SweepCost()
        for mode in range(3):
            update = 3 * sweep + mode
            node = _multisweep_node(update)
            if node is None:
                cost += _recompute_cost(shape, _ROOT_3WAY, (mode,), rank)
                continue
            if update % 2:
                cost += _recompute_cost(shape, _ROOT_3WAY, node, rank)
            cost += _recompute_cost(shape, node, (mode,), rank)
        costs.append(cost)
    return costs


class MultiSweepTreeKernel(DimensionTreeKernel):
    """The multi-sweep dimension tree: ``kernel="msdt"``, the ``cp_als`` default.

    The schedule of Ma and Solomonik ("Efficient parallel CP decomposition
    with pairwise perturbation and multi-sweep dimension tree", IPDPS 2021)
    on a 3-way tensor.  Update ``t = 3 (s - 1) + m`` is mode ``m`` of sweep
    ``s`` (from :meth:`begin_sweep`).  Update 0 reads its leaf off the
    tensor, as the halving tree does.  Every odd update ``t`` contracts the
    tensor with the factor that update ``t - 1`` has just replaced, into the
    two-mode node ``{t mod 3, (t + 1) mod 3}``, and serves updates ``t`` and
    ``t + 1`` from it with one single-mode step each; then the node is
    dropped.  So one tensor read serves two updates: sweep 1 is bitwise the
    halving tree's, and from sweep 2 on the sweeps alternate two tensor
    reads and one, against two every sweep for ``"dimtree"``.  The node is
    picked by position, never by what happens to be cached, so a retry after
    :meth:`invalidate_caches`, or a resume, rebuilds the node the
    uninterrupted run used.  At most one node is cached at a time.

    The schedule runs on a 3-way tensor with ``R`` at most every extent, in
    any layout: each of its tensor reads is one
    :func:`repro.core.kernels.gemm_mttkrp` on a C-ordered tensor and a
    one-mode contraction on any other, and both are charged alike.  Every
    other input, and a call outside a sweep, runs the inherited halving
    tree, bitwise equal to ``"dimtree"``.  :func:`multisweep_sweep_costs`
    replays the counted ledger.  The kernel takes no options.
    """

    def __init__(self) -> None:
        super().__init__()
        #: The sweep the driver last announced (0 before the first).
        self._sweep = 0

    def begin_sweep(self, iteration: int) -> None:
        super().begin_sweep(iteration)
        self._sweep = int(iteration)

    def mttkrp(
        self, tensor, factors: Sequence[Optional[np.ndarray]], mode: int
    ) -> np.ndarray:
        data = as_ndarray(tensor)
        self._bind(data)
        tree = self.tree
        mode = check_mode(mode, data.ndim)
        rank = tree.register_factors(factors, mode)
        if not (self._sweep and _runs_multisweep(data.shape, rank)):
            return super().mttkrp(data, factors, mode)
        update = 3 * (self._sweep - 1) + mode
        node = _multisweep_node(update)
        out = tree.derive((mode,), _ROOT_3WAY if node is None else node)
        if update % 2 == 0:
            tree.drop_partials()
        return np.ascontiguousarray(out)
