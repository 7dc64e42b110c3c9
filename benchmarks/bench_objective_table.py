#!/usr/bin/env python3
"""Times the objective-table kernel and method 2's batched subsample kernel.

Usage:
    python benchmarks/bench_objective_table.py [--repeats 30]

The (n, d) grid covers the shapes the Monte Carlo studies hit: long-thin
(rate study), short-wide (selector studies), and the method-2 subsample
shape that dominates the selection comparison.  The last row times one
method-2 call's worth of work, 100 sorted subsets of 80 of 100 rows at
d = 200, as ``subsample_argmins`` against a loop of ``objective_table``
calls, and checks that the two give the same argmins.
"""

import argparse
import time

import numpy as np

from cpkmeans._kernels import objective_table, subsample_argmins

SHAPES = [(500, 20), (4000, 20), (100, 200), (80, 200)]


def best_of(fn, args, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def per_subset_argmins(values, rows):
    return np.stack([np.argmin(objective_table(values[r]), axis=1) for r in rows])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    print(f"{'objective_table':<28} {'time':>10}")
    for n, d in SHAPES:
        y = rng.normal(size=(n, d))
        t = best_of(objective_table, (y,), args.repeats)
        print(f"{f'{n}x{d}':<28} {t * 1e3:>8.3f}ms")

    n, d, m, s = 100, 200, 80, 100
    y = rng.normal(size=(n, d))
    rows = np.stack([np.sort(rng.choice(n, size=m, replace=False)) for _ in range(s)])
    t_loop = best_of(per_subset_argmins, (y, rows), args.repeats)
    t_batch = best_of(subsample_argmins, (y, rows), args.repeats)
    same = np.array_equal(subsample_argmins(y, rows), per_subset_argmins(y, rows))
    print(f"\n{'method 2':<28} {'loop':>10} {'batched':>10} {'speedup':>8}")
    print(
        f"{f'{s}x({m} of {n})x{d}':<28} {t_loop * 1e3:>8.3f}ms {t_batch * 1e3:>8.3f}ms "
        f"{t_loop / t_batch:>7.1f}x{'' if same else '  MISMATCH'}"
    )


if __name__ == "__main__":
    main()
