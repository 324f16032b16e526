"""Algorithm 1: the sequential unblocked MTTKRP.

The pseudocode loads the tensor entry once per innermost tensor index and,
for every rank index ``r``, loads the ``N - 1`` input factor entries, loads
the output entry, updates it, and stores it back.  Its communication cost is

    ``W <= I + I * R * (N + 1)``

(Section V-A), which is far from the lower bound when ``M`` is large — the
algorithm exploits no reuse.  The implementation below performs the numeric
work with the vectorised kernel (the arithmetic result does not depend on the
loop order) and charges the loads/stores exactly as the pseudocode issues
them; an element-by-element simulation that issues every instruction
individually is available in :mod:`repro.sequential.elementwise` and is used
by the tests to validate the charging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.kernels import mttkrp
from repro.sequential.machine import IOCounter
from repro.tensor.dense import as_ndarray
from repro.utils.validation import check_mode, infer_rank


@dataclass(frozen=True)
class SequentialResult:
    """Result of a counted sequential MTTKRP.

    Attributes
    ----------
    result:
        The output matrix ``B`` (``I_n x R``).
    counter:
        The I/O counter holding loads and stores charged by the algorithm.
    block:
        Block size used (``1`` for the unblocked algorithm).
    """

    result: np.ndarray
    counter: IOCounter
    block: int = 1

    @property
    def words_moved(self) -> int:
        """Total loads + stores."""
        return self.counter.words_moved


def sequential_unblocked_mttkrp(
    tensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    *,
    counter: Optional[IOCounter] = None,
) -> SequentialResult:
    """Run Algorithm 1 and count its communication.

    Parameters
    ----------
    tensor:
        Dense ``N``-way tensor.
    factors:
        One factor matrix per mode; entry for ``mode`` is ignored.
    mode:
        Output mode ``n``.
    counter:
        Optional existing :class:`IOCounter` to accumulate into (a fresh one
        is created otherwise).

    Returns
    -------
    SequentialResult
        The output matrix and the I/O counter.
    """
    data = as_ndarray(tensor)
    mode = check_mode(mode, data.ndim)
    if counter is None:
        counter = IOCounter()

    rank = infer_rank(factors, mode)

    result = mttkrp(data, factors, mode)

    total = int(data.size)
    n_modes = data.ndim
    # Line 5: load X(i_1, ..., i_N) — once per tensor entry.
    counter.load(total)
    # Lines 7-10, per (tensor entry, r): N-1 factor loads, 1 output load, 1 output store.
    counter.load(total * rank * (n_modes - 1))
    counter.load(total * rank)
    counter.store(total * rank)
    return SequentialResult(result=result, counter=counter, block=1)
