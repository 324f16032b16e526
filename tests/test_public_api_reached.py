"""Tier-1 guard: public code that nothing runs does not come back.

Walks the top-level public functions and classes of ``src/repro``.  A name
counts as reached when a non-``__init__`` file under ``src/``, ``bench/``,
``benchmarks/`` or ``examples/`` refers to it in its syntax tree: as a name,
an attribute or a ``from`` import.  Package exports and tests do not count,
so code whose only callers are its own tests shows up here.  The unreached
names must be exactly the pinned allowlist below, each kept for the reason
it gives: new public code needs a caller, and a listed name that gains one
leaves the list.

Public methods of the top-level classes are held to the same rule, by name:
some file under those directories must refer to the method's name, as a
name, an attribute or an import.  The unreached methods must be exactly the
pinned ``UNREACHED_METHODS``, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Directories whose code counts as a caller.
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")

#: Public names that only tests call, each with why it stays.
UNREACHED_ALLOWLIST = {
    # Objects of the paper, which the tests check against its text.
    "cubical_lower_bound": "Corollary 4.2, the combined bound for cubical tensors",
    "max_iterations_per_segment": "the per-segment iteration bound in the proof of Theorem 4.1",
    "max_product_given_sum_argmax": "the maximiser of Lemma 4.3",
    "mttkrp_delta_matrix": "the constraint matrix of the HBL inequality of Lemmas 4.1 and 4.2",
    "elementwise_unblocked_mttkrp": "Algorithm 1, one instruction at a time, as Definition 2.1 states it",
    "elementwise_blocked_mttkrp": "Algorithm 2, one instruction at a time, as Definition 2.1 states it",
    "mttkrp_reference": "Definition 2.1 written as loops, the oracle of the kernel tests",
    "ideal_stationary_grid": "the real-valued grid rule of Section V-C3",
    "ideal_general_grid": "the real-valued grid rule of Section V-D3",
    "minimum_memory_for_block": "the fast memory Eq. (11) asks of a block size",
    "matmul_regime_boundaries": "the processor counts where the matmul baseline changes regime",
    # A test oracle.
    "fold": "the inverse of unfold, the oracle of the unfolding and reconstruction tests",
    # A fault injector.
    "poison_kernel_cache": "injects the cache corruption the on_fault recovery tests undo",
    # Tracing helpers kept for the timed spans below the mode level.
    "active_session": "returns the installed trace session to a span",
    "is_tracing": "lets a span skip its bookkeeping when tracing is off",
    "add_comm": "charges simulated-machine words to the open span",
    "observe_value": "records a histogram value on the open session",
    "stop_trace": "uninstalls the session that start_trace installed",
}


#: Public methods that only tests call, each with why it stays.
UNREACHED_METHODS = {
    # Test oracles.
    "SampleSet.linear_rows": "drawn rows as Khatri-Rao row indices, the draw tests' oracle",
    "GramSegmentTree.node_gram": "one node's partial Gram, the segment-tree tests' oracle",
    "KRPTreeSampler.conditional_weight": "one conditional draw's weight matrix, the descent's oracle",
    "KRPTreeSampler.conditional_distribution": "what the statistical tests factor the joint against",
    # The balance quantities of Section V's distributions.
    "StationaryDistribution.max_tensor_words": "the gamma-balance of Algorithm 3's distribution",
    "StationaryDistribution.max_factor_words": "the delta-balance of Algorithm 3's distribution",
    "GeneralDistribution.max_tensor_words": "the largest tensor share of Algorithm 4's distribution",
    "GeneralDistribution.max_factor_words": "the largest factor share of Algorithm 4's distribution",
    # Inspection of a run's checkpoints and of the memory model.
    "CheckpointStore.at_sweep": "picks the checkpoint of one sweep to resume from",
    "TwoLevelMemory.used": "the words resident in fast memory, checked against its capacity",
}


def public_definitions():
    """``name -> defining file`` of every top-level public function and class."""
    definitions = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    definitions.setdefault(node.name, str(path.relative_to(ROOT)))
    return definitions


def public_methods():
    """``Class.method -> defining file`` of every public method of a top-level class."""
    methods = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        methods[f"{node.name}.{item.name}"] = str(path.relative_to(ROOT))
    return methods


def referenced_names(directories=CALLER_DIRS):
    """Every name, attribute and ``from`` import of the files in ``directories``."""
    names = set()
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
    return names


def test_unreached_public_names_are_exactly_the_allowlist():
    definitions = public_definitions()
    referenced = referenced_names()
    unreached = {name for name in definitions if name not in referenced}
    new = sorted(f"{name} ({definitions[name]})" for name in unreached - set(UNREACHED_ALLOWLIST))
    assert not new, f"public code nothing runs; delete it or give it a caller: {new}"
    stale = sorted(set(UNREACHED_ALLOWLIST) - unreached)
    assert not stale, f"allowlisted names that are now reached or gone: {stale}"


def test_unreached_public_methods_are_exactly_the_allowlist():
    methods = public_methods()
    referenced = referenced_names()
    unreached = {name for name in methods if name.split(".", 1)[1] not in referenced}
    new = sorted(f"{name} ({methods[name]})" for name in unreached - set(UNREACHED_METHODS))
    assert not new, f"public methods only tests call; delete them or give them a caller: {new}"
    stale = sorted(set(UNREACHED_METHODS) - unreached)
    assert not stale, f"allowlisted methods that are now reached or gone: {stale}"
