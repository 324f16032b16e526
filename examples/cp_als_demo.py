#!/usr/bin/env python
"""CP decomposition of a noisy low-rank tensor, sequentially and in simulated parallel.

MTTKRP is the bottleneck of CP-ALS (Section II of the paper); this example
shows the workload end to end:

1. build a synthetic rank-5 tensor with 1% noise,
2. recover it with sequential CP-ALS, which runs the dimension-tree kernel
   when none is named,
3. run the same decomposition with every MTTKRP executed on the simulated
   distributed machine, where ``parallel_cp_als`` runs the distributed
   dimension tree when no kernel is named, and
4. report the fit and the communication the MTTKRPs required per sweep,
   beside that of the paper's Algorithm 3 (``kernel="exact"``), which
   All-Gathers ``N - 1`` factors per mode update where the tree gathers one.

Run with ``python examples/cp_als_demo.py``.
"""

from repro import cp_als, noisy_low_rank_tensor, parallel_cp_als


def main() -> None:
    shape = (30, 25, 20)
    rank = 5
    tensor = noisy_low_rank_tensor(shape, rank, noise_level=0.01, seed=7)
    print(f"Synthetic tensor: {shape}, true rank {rank}, 1% noise")

    sequential = cp_als(tensor, rank, n_iter_max=100, tol=1e-8, seed=3)
    print("\nSequential CP-ALS")
    print(f"  iterations : {sequential.n_iterations}")
    print(f"  converged  : {sequential.converged}")
    print(f"  final fit  : {sequential.final_fit:.6f}")
    print(f"  MTTKRP calls: {sequential.mttkrp_calls}")

    n_procs = 8
    options = dict(n_procs=n_procs, n_iter_max=20, tol=1e-8, seed=3)
    parallel = parallel_cp_als(tensor, rank, **options)
    exact = parallel_cp_als(tensor, rank, kernel="exact", **options)
    print(
        f"\nSimulated-parallel CP-ALS (P = {n_procs}, distributed dimension tree, "
        f"grid {parallel.grids[0]})"
    )
    print(f"  final fit                    : {parallel.als.final_fit:.6f}")
    print(f"  iterations                   : {parallel.als.n_iterations}")
    print(f"  words/processor, steady sweep: {parallel.words_per_iteration[-1]:,}")
    print(f"  words/processor total        : {parallel.total_words:,}")
    print('Algorithm 3 (kernel="exact") on the same grid')
    print(f"  final fit                    : {exact.als.final_fit:.6f}")
    print(f"  words/processor, steady sweep: {exact.words_per_iteration[-1]:,}")
    print(f"  words/processor total        : {exact.total_words:,}")

    leading = parallel.als.model.weights[: min(5, rank)]
    print("\nLeading recovered component weights:", [f"{w:.3f}" for w in leading])


if __name__ == "__main__":
    main()
