"""Dense tensor substrate: matricization, Khatri-Rao products, Kruskal tensors.

This subpackage implements the dense-tensor machinery that the MTTKRP
algorithms and the CP-ALS driver rely on.  It follows the conventions of
Kolda & Bader, "Tensor Decompositions and Applications" (SIAM Review 2009),
which is reference [1] of the paper:

* mode-``n`` matricization ``X_(n)`` maps tensor entry ``(i_1, ..., i_N)`` to
  matrix entry ``(i_n, j)`` with ``j = sum_{k != n} i_k * prod_{m < k, m != n} I_m``
  (column index varies fastest with the *smallest* remaining mode);
* the Khatri-Rao product used by MTTKRP multiplies the factor matrices of all
  modes except ``n`` in *reverse* mode order, so that
  ``B = X_(n) @ khatri_rao([A_(N-1), ..., A_(n+1), A_(n-1), ..., A_0])``.
"""

from repro.tensor.matricization import unfold, fold, mode_product_shape
from repro.tensor.khatri_rao import khatri_rao, khatri_rao_excluding, hadamard_all
from repro.tensor.dense import DenseTensor
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.random import (
    random_tensor,
    random_factors,
    random_kruskal_tensor,
    random_low_rank_tensor,
    noisy_low_rank_tensor,
)

__all__ = [
    "unfold",
    "fold",
    "mode_product_shape",
    "khatri_rao",
    "khatri_rao_excluding",
    "hadamard_all",
    "DenseTensor",
    "KruskalTensor",
    "random_tensor",
    "random_factors",
    "random_kruskal_tensor",
    "random_low_rank_tensor",
    "noisy_low_rank_tensor",
]
