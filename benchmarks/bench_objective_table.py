#!/usr/bin/env python3
"""Times the objective-table kernel, its one-row kernel and method 2's batched kernel.

Usage:
    python benchmarks/bench_objective_table.py [--repeats 30]

The (n, d) grid covers the shapes the Monte Carlo studies hit: long-thin
(rate study), short-wide (selector and sweep studies), and the method-2
subsample shape that dominates the selection comparison.  The table rows
time ``objective_table``, built in (k, T) layout in place, against an
inline copy of the direct (T, k) formula it replaced.  The fixed-T rows time
``objective_row`` against the table of the T-truncated matrix at the
rate study's T = 10, as ``estimate_tau`` used to build it.  The last row
times one method-2 call's worth of work, 100 sorted subsets of 80 of 100
rows at d = 200, as ``subsample_argmins`` against a loop of
``objective_table`` calls.  Every comparison prints MISMATCH if the two
sides differ, and the script then exits with status 1.
"""

import argparse
import sys
import time

import numpy as np

from cpkmeans._kernels import objective_row, objective_table, subsample_argmins

SHAPES = [(500, 20), (4000, 20), (100, 200), (80, 200)]
ROW_SHAPES = [(500, 10), (4000, 10)]  # (n, T) of the rate study's fixed-T fits


def best_of(fn, args, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def table_reference(values):
    """The objective table by the direct (T, k) formula, in fresh arrays."""
    n = values.shape[0]
    ks = np.arange(2, n - 1)
    head = np.cumsum(values, axis=0)
    tail = head[-1] - head
    tss = np.cumsum(np.cumsum(values * values, axis=0)[-1])
    head_energy = np.cumsum(head * head, axis=1)
    tail_energy = np.cumsum(tail * tail, axis=1)
    return tss[:, None] - head_energy[ks - 1].T / ks - tail_energy[ks - 1].T / (n - ks)


def truncated_table_row(values, T):
    return objective_table(np.ascontiguousarray(values[:, :T]))[T - 1]


def per_subset_argmins(values, rows):
    return np.stack([np.argmin(objective_table(values[r]), axis=1) for r in rows])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    mismatches = 0
    print(f"{'objective_table':<28} {'direct':>10} {'(k, T)':>10} {'speedup':>8}")
    for n, d in SHAPES:
        y = rng.normal(size=(n, d))
        t_ref = best_of(table_reference, (y,), args.repeats)
        t_new = best_of(objective_table, (y,), args.repeats)
        same = np.array_equal(objective_table(y), table_reference(y))
        mismatches += not same
        print(
            f"{f'{n}x{d}':<28} {t_ref * 1e3:>8.3f}ms {t_new * 1e3:>8.3f}ms "
            f"{t_ref / t_new:>7.2f}x{'' if same else '  MISMATCH'}"
        )

    print(f"\n{'fixed T':<28} {'table':>10} {'row':>10} {'speedup':>8}")
    for n, T in ROW_SHAPES:
        y = rng.normal(size=(n, 20))
        t_table = best_of(truncated_table_row, (y, T), args.repeats)
        t_row = best_of(objective_row, (y, T), args.repeats)
        same = np.array_equal(objective_row(y, T), truncated_table_row(y, T))
        mismatches += not same
        print(
            f"{f'{n}x{T}':<28} {t_table * 1e3:>8.3f}ms {t_row * 1e3:>8.3f}ms "
            f"{t_table / t_row:>7.1f}x{'' if same else '  MISMATCH'}"
        )

    n, d, m, s = 100, 200, 80, 100
    y = rng.normal(size=(n, d))
    rows = np.stack([np.sort(rng.choice(n, size=m, replace=False)) for _ in range(s)])
    t_loop = best_of(per_subset_argmins, (y, rows), args.repeats)
    t_batch = best_of(subsample_argmins, (y, rows), args.repeats)
    same = np.array_equal(subsample_argmins(y, rows), per_subset_argmins(y, rows))
    mismatches += not same
    print(f"\n{'method 2':<28} {'loop':>10} {'batched':>10} {'speedup':>8}")
    print(
        f"{f'{s}x({m} of {n})x{d}':<28} {t_loop * 1e3:>8.3f}ms {t_batch * 1e3:>8.3f}ms "
        f"{t_loop / t_batch:>7.1f}x{'' if same else '  MISMATCH'}"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
