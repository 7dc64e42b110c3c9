#!/usr/bin/env python3
"""Times the objective-table kernel, its one-row kernel, method 2's batched kernel and method 1.

Usage:
    python benchmarks/bench_objective_table.py [--repeats 30]

The (n, d) grid covers the shapes the Monte Carlo studies hit: long-thin
(rate study), short-wide (selector and sweep studies), and the method-2
subsample shape that dominates the selection comparison.  The table rows
time ``objective_table``, the centred CUSUM table built in (k, T) layout
in place, against an inline copy of its direct (T, k) formula.  The
fixed-T rows time ``objective_row`` against the table of the T-truncated
matrix at the rate study's T = 10, as ``estimate_tau`` used to build it.
The method-2 row times one method-2 call's worth of work, 100 sorted
subsets of 80 of 100 rows at d = 200, as ``subsample_argmins`` against a
loop of ``objective_table`` calls.  The method-1 row times the closed-form
``method1_select`` against the O(d^2) loop it replaced, on the surrogates
of 60 caseB samples at the selection study's 100 x 200 shape, and
compares the T each picks.  Every comparison prints MISMATCH if the two
sides differ, and the script then exits with status 1.
"""

import argparse
import sys
import time

import numpy as np

from cpkmeans import (
    MeanCase,
    ModelSpec,
    generate_sample,
    method1_select,
    sample_case_means,
    surrogate,
)
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
    """The centred objective table by its direct (T, k) formula, in fresh arrays."""
    n = values.shape[0]
    ks = np.arange(2, n - 1)
    x = values - values[0]
    prefix = np.cumsum(x, axis=0)
    total = prefix[-1]
    squares = np.add.reduce(np.ascontiguousarray((x * x).T), axis=1)
    tss = np.cumsum(squares - total * total / n)
    cusum = prefix[ks - 1].T - total[:, None] * (ks / n)
    energy = np.cumsum(cusum * cusum, axis=0)
    return tss[:, None] - energy * (n / (ks * (n - ks)))


def method1_loop(z):
    """Method 1 as the loop it replaced: each T's two-regime SSE from scratch."""
    zv = z.z
    d = zv.size
    scores = np.empty(d)
    for t in range(1, d + 1):
        head = zv[:t] - zv[:t].mean()
        score = head @ head
        if t < d:
            tail = zv[t:] - zv[t:].mean()
            score += tail @ tail
        scores[t - 1] = score
    return int(np.argmin(scores)) + 1


def caseb_surrogates(rng, count):
    out = []
    for seed in range(count):
        theta_minus, theta_plus = sample_case_means(MeanCase.CASE_B, 200, rng)
        spec = ModelSpec(
            n=100, d=200, tau=0.3, theta_minus=theta_minus, theta_plus=theta_plus, sigma=1.0
        )
        out.append(surrogate(generate_sample(spec, seed), 1.0))
    return out


def run_all(fn, items):
    return [fn(item) for item in items]


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

    zs = caseb_surrogates(rng, 60)
    t_loop = best_of(run_all, (method1_loop, zs), args.repeats) / len(zs)
    t_closed = best_of(run_all, (method1_select, zs), args.repeats) / len(zs)
    same = run_all(method1_loop, zs) == run_all(method1_select, zs)
    mismatches += not same
    print(f"\n{'method 1, per surrogate':<28} {'loop':>10} {'closed':>10} {'speedup':>8}")
    print(
        f"{f'{len(zs)} caseB, d=200':<28} {t_loop * 1e3:>8.3f}ms {t_closed * 1e3:>8.3f}ms "
        f"{t_loop / t_closed:>7.1f}x{'' if same else '  MISMATCH'}"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
