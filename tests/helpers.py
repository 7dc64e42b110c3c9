"""Shared independent oracles for the test suite.

These deliberately avoid the package's fast paths: the Lepski oracle
enumerates every (k, m, j) window literally, the two-regime oracle
evaluates the split criterion segment by segment, the table reference
is the objective table's direct (T, k) centred CUSUM formula, and the
method-2 oracle builds one full objective table per subsample.
"""

import math

import numpy as np

from cpkmeans._kernels import objective_table


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
    """Method 2 as a loop: one full objective table per subsample."""
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
