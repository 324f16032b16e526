"""One sha256 per shape and registry entry: a bitwise fingerprint of every kernel.

Runs every :data:`repro.cp.als.KERNEL_NAMES` entry through ``cp_als`` and
every :data:`repro.cp.parallel_als.PARALLEL_KERNEL_NAMES` entry through
``parallel_cp_als`` at ``P = 4``, on five small shapes (3-way, 4-way,
extent-2, 2-way and a cube), at ``R = 3``, four sweeps and seed 7, with a
checkpoint after every sweep.  Each digest covers:

* the fits, factors, weights and ``mttkrp_calls`` of the run;
* each sweep's traced flops and words (and, distributed, its simulated
  collective words and messages);
* the distributed word ledgers: ``words_per_iteration``, ``words_sent``,
  ``words_received`` and ``storage_high_water``;
* the same for the runs resumed from the checkpoints after sweeps 1, 2 and 3.

A run that fails digests its exception's type and message.

Usage, from the repository root::

    PYTHONPATH=src python benchmarks/registry_digest.py

The script asserts nothing.  Two commits compute the same bits exactly when
they print the same lines on one host, which is how a change that promises
bitwise-equal results is checked.  The digests themselves depend on the
BLAS build, so they are not recorded, and no CI step compares them.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

try:  # pragma: no cover - trivial import guard
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cp.als import KERNEL_NAMES, cp_als
from repro.cp.parallel_als import PARALLEL_KERNEL_NAMES, parallel_cp_als
from repro.observe import tracing
from repro.resilience.checkpoint import CheckpointStore
from repro.tensor.random import noisy_low_rank_tensor

SHAPES = ((12, 10, 8), (8, 6, 5, 4), (2, 9, 8), (12, 10), (9, 9, 9))
RANK = 3
SWEEPS = 4
SEED = 7
N_PROCS = 4
RESUME_AFTER = (1, 2, 3)


def _feed(digest, value) -> None:
    """Hash ``value`` with its type, shape and dtype, so no two values collide."""
    if isinstance(value, np.ndarray):
        digest.update(f"array{value.shape}{value.dtype.str}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        digest.update(f"seq{len(value)}".encode())
        for item in value:
            _feed(digest, item)
    elif isinstance(value, float):
        digest.update(b"float" + np.float64(value).tobytes())
    else:
        digest.update(f"{type(value).__name__}:{value!r}".encode())


def _als_record(als) -> list:
    model = als.model
    return [als.fits, model.factors, model.weights, als.mttkrp_calls, als.n_iterations]


def _sweep_record(session) -> list:
    return [
        (span.flops, span.words, span.comm_words, span.messages)
        for span in session.spans_named("sweep")
    ]


def _sequential(data, name: str, **resume) -> list:
    with tracing() as session:
        result = cp_als(data, RANK, kernel=name, n_iter_max=SWEEPS, tol=0.0, seed=SEED, **resume)
    return _als_record(result) + _sweep_record(session)


def _parallel(data, name: str, **resume) -> list:
    with tracing() as session:
        result = parallel_cp_als(
            data, RANK, N_PROCS, kernel=name, n_iter_max=SWEEPS, tol=0.0, seed=SEED, **resume
        )
    machine = result.machine
    return (
        _als_record(result.als)
        + _sweep_record(session)
        + [
            result.words_per_iteration,
            machine.words_sent,
            machine.words_received,
            machine.storage_high_water,
        ]
    )


def entry_digest(run, data, name: str) -> str:
    """The sha256 of one entry: the checkpointed run and its three resumes."""
    digest = hashlib.sha256()
    try:
        store = CheckpointStore()
        _feed(digest, run(data, name, checkpoint_store=store))
        for sweep in RESUME_AFTER:
            _feed(digest, run(data, name, resume_from=store.states[sweep - 1]))
    except Exception as exc:  # a failure is part of the fingerprint
        _feed(digest, [type(exc).__name__, str(exc)])
    return digest.hexdigest()


def main() -> None:
    for shape in SHAPES:
        data = noisy_low_rank_tensor(shape, RANK, noise_level=0.1, seed=SEED)
        for registry, names, run in (
            ("cp_als", KERNEL_NAMES, _sequential),
            ("parallel_cp_als", PARALLEL_KERNEL_NAMES, _parallel),
        ):
            for name in names:
                print(f"{'x'.join(map(str, shape))} {registry} {name} {entry_digest(run, data, name)}")


if __name__ == "__main__":
    main()
