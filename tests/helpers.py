"""Shared independent oracles for the test suite.

These deliberately avoid the package's fast paths: the Lepski oracle
enumerates every (k, m, j) window literally, the two-regime oracle
evaluates the split criterion segment by segment, the table reference
is the objective table's direct (T, k) centred CUSUM formula, the
method-2 oracle builds one full objective table per subsample, the
means reference draws each case by its own branch, the sample reference
adds a full means matrix to the scaled noise, the record columns are
built from a study's grid by tile and repeat, the summary reference
groups those records one at a time in a dict, and the split's sum of
squares comes from direct segment means.  ``WORKERS`` and
``skip_pool_below_two_cpus`` fit the pool tests to the machine's CPUs.
"""

import math
import os

import numpy as np
import pytest

from cpkmeans._kernels import objective_table
from cpkmeans.errors import ValidationError, check_integer
from cpkmeans.experiments import MeanCase
from cpkmeans.stats import summarize

# The pool size of a test that only needs some pool: 2, or 1 on one CPU,
# where run_study refuses 2 workers.
WORKERS = min(2, os.cpu_count() or 1)


def skip_pool_below_two_cpus():
    """Skip the rest of a test that compares 1 worker with 2 where there is one CPU."""
    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip(f"a 2-worker pool needs 2 CPUs, os.cpu_count() is {cpus}")


def _check_k(Y, k: int):
    # Any split with two non-empty segments is evaluable; the *estimator*
    # restricts its argmin to {2, ..., n-2}.
    if not 1 <= k <= Y.n - 1:
        raise ValidationError(f"k must lie in [1, {Y.n - 1}], got {k}")


def objective_bruteforce(Y, T: int, k: int) -> float:
    """Two-segment SSE of the first T coordinates of a SignalMatrix when rows
    split after row k, by direct segment means and deviations: the kernels' oracle."""
    check_integer("T", T, 1, Y.d)
    _check_k(Y, k)
    first = Y.values[:k, :T]
    second = Y.values[k:, :T]
    return float(
        ((first - first.mean(axis=0)) ** 2).sum()
        + ((second - second.mean(axis=0)) ** 2).sum()
    )


def lepski_bruteforce(z: np.ndarray, nu_sq: float, c_lepski: float, n: int, d: int) -> int:
    """Literal scan of the windowed-energy condition over every (k, m, j)."""
    z2 = np.asarray(z, dtype=np.float64) ** 2
    scale = math.log(max(d, n))
    thr = [c_lepski * j * nu_sq * scale for j in range(d + 1)]
    for k in range(1, d + 1):
        ok = True
        for j in range(k, d + 1):
            for m in range(k, j + 1):
                if z2[m - 1 : j].sum() > thr[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return k
    return d


def two_regime_scores(z: np.ndarray) -> np.ndarray:
    """Exhaustive split criterion of the surrogate: SSE of z[:T] plus SSE of z[T:]."""
    z = np.asarray(z, dtype=np.float64)
    d = z.size
    out = np.empty(d)
    for t in range(1, d + 1):
        head = z[:t]
        score = float(((head - head.mean()) ** 2).sum())
        if t < d:
            tail = z[t:]
            score += float(((tail - tail.mean()) ** 2).sum())
        out[t - 1] = score
    return out


def method2_loop(values: np.ndarray, n_sub: int, frac: float, seed: int) -> int:
    """Method 2 as a loop: one full objective table per subsample.

    It breaks rounded ties by the table's first minimum, where
    ``subsample_argmins`` takes the weighted energy's first maximum: both
    are minimisers, and they differ only where a row's minimum is tied.
    """
    n, d = values.shape
    m = int(frac * n)
    rng = np.random.default_rng(seed)
    tau_hats = np.empty((n_sub, d))
    for s in range(n_sub):
        idx = np.sort(rng.choice(n, size=m, replace=False))
        table = objective_table(np.ascontiguousarray(values[idx]))
        tau_hats[s] = (np.argmin(table, axis=1) + 2) / m
    return int(np.argmin(tau_hats.var(axis=0, ddof=1))) + 1


def objective_table_reference(values: np.ndarray) -> np.ndarray:
    """The objective table by its direct (T, k) centred CUSUM formula, in fresh arrays.

    Each column is shifted by its first value, ``x = Y - Y[0]``; with P_k
    the sum of the first k rows of x, ``S_k = P_k - (k / n) P_n``,
    ``tss = sum x^2 - P_n^2 / n`` and ``W = tss_T - n / (k (n - k)) sum S_k^2``.
    ``objective_table`` must equal this bit for bit: it applies the same
    operations to every element in the same order, in (k, T) layout.
    """
    n = values.shape[0]
    ks = np.arange(2, n - 1)
    x = values - values[0]
    prefix = np.cumsum(x, axis=0)
    total = prefix[-1]
    # Pairwise sum down each column, as numpy sums one contiguous row.
    squares = np.add.reduce(np.ascontiguousarray((x * x).T), axis=1)
    tss = np.cumsum(squares - total * total / n)
    cusum = prefix[ks - 1].T - total[:, None] * (ks / n)
    energy = np.cumsum(cusum * cusum, axis=0)
    return tss[:, None] - energy * (n / (ks * (n - ks)))


def record_columns(result) -> dict[str, np.ndarray]:
    """A StudyResult's records as columns, one entry per row of records.csv.

    ``trial_index``, ``n``, ``T``, ``tau_hat``, ``abs_error`` and
    ``selector``, built from the (trial, row) grid of splits by ``np.tile``
    and ``np.repeat``, each tau_hat the split over its grid row's n; the
    file's ``tau_true`` column is ``config.tau``.
    """
    c, grid = result.config, result.grid
    tau_hat = grid / np.repeat(c.n_grid, c.trials)[:, None]
    return {
        "trial_index": np.tile(np.repeat(np.arange(c.trials), len(c.rows)), len(c.n_grid)),
        "n": np.repeat(c.n_grid, c.trials * len(c.rows)),
        "T": np.broadcast_to(result.T_grid, grid.shape).flatten(),
        "tau_hat": tau_hat.ravel(),
        "abs_error": np.abs(tau_hat - c.tau).ravel(),
        "selector": np.tile([tag for _, tag in c.rows], len(grid)),
    }


def same_records(a, b) -> bool:
    """Two StudyResults hold equal record columns, element for element, of equal dtypes."""
    a, b = record_columns(a), record_columns(b)
    return all(a[c].dtype == b[c].dtype and np.array_equal(a[c], b[c]) for c in a)


def generate_sample_reference(spec, seed: int) -> np.ndarray:
    """The sample as ``means + sigma * z``, with the (n, d) means matrix built in full."""
    rng = np.random.default_rng(seed)
    c = spec.change_index
    means = np.empty((spec.n, spec.d))
    means[:c] = spec.theta_minus
    means[c:] = spec.theta_plus
    return means + spec.sigma * rng.standard_normal((spec.n, spec.d))


def case_means_reference(case, d: int, rng: np.random.Generator):
    """Segment means by one branch per case, scales rebuilt on every call."""
    case = MeanCase(case)
    if case is MeanCase.RATE_MODEL:
        j = np.arange(1, d + 1, dtype=np.float64)
        theta_minus = rng.normal(0.0, 1.0 / (math.sqrt(20.0) * j))
        return theta_minus, rng.normal(-theta_minus, 1e-2)
    if case is MeanCase.CASE_A:
        scale = 1.0 / (math.sqrt(2.0) * np.arange(1, d + 1, dtype=np.float64))
        return rng.normal(0.0, scale), rng.normal(0.0, scale)
    tail_scale = 1.0 / (math.sqrt(2.0) * (np.arange(21, d + 1, dtype=np.float64) - 20.0))
    theta_minus = rng.normal(0.0, np.concatenate([np.full(20, math.sqrt(0.5)), tail_scale]))
    loc_plus = np.concatenate([theta_minus[:20], np.zeros(d - 20)])
    return theta_minus, rng.normal(loc_plus, np.concatenate([np.full(20, 0.1), tail_scale]))


def summary_by_record(result) -> dict:
    """A StudyResult's summary by one pass over its records.

    Each record joins the group (n, T, selector), T None for method 1 and
    method 2, and groups keep the order in which they first appear.
    """
    records = record_columns(result)
    groups = {}
    for i, (n, t, tag) in enumerate(
        zip(records["n"].tolist(), records["T"].tolist(), records["selector"].tolist())
    ):
        key = (n, None if tag in ("method1", "method2") else t, tag)
        groups.setdefault(key, []).append(i)
    return {key: summarize(records["abs_error"][rows]) for key, rows in groups.items()}
