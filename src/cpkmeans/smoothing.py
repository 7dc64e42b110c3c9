"""Truncation-level selection.

A single surrogate vector built from all signals (the full column mean
minus (2/n) times the sum of the first floor(n/2) rows, which is the
first-half mean when n is even) carries the between-segment mean
difference with per-coordinate noise variance sigma^2 / n.  Three
selectors pick the truncation level T from it or from the sample
directly:

* ``lepski_select`` - smallest k beyond which every windowed energy of
  the surrogate stays under a log-scaled noise threshold;
* ``method1_select`` - two-regime split of the surrogate energies;
* ``method2_select`` - subsampling, minimizing the variance of the
  estimated change fraction across subsamples.
"""

from __future__ import annotations

import math

import numpy as np

# Unused here, but kept bound: tracing tools wrap smoothing.objective_table by name.
from ._kernels import objective_table  # noqa: F401
from ._kernels import subsample_argmins
from .errors import (
    ValidationError, check_array, check_fraction, check_integer, check_real, check_sigma,
)
from .estimator import ChangePointFit, estimate_tau
from .model import SignalMatrix

__all__ = [
    "surrogate",
    "lepski_select",
    "method1_select",
    "method2_select",
    "estimate_adaptive",
]


# The windowed-energy threshold's constant: 16 is the smallest admissible
# constant independent of the unknown smoothness radius.
C_LEPSKI = 16.0


def surrogate(Y: SignalMatrix) -> np.ndarray:
    """Full column mean minus (2/n) times the sum of the first floor(n/2) rows,
    read-only; each coordinate's noise variance is sigma^2 / n.

    Both sums run over the columns shifted by their first row, so a large
    common offset does not cancel.  The shift drops out of z except, for
    odd n, the first row's 1/n share, which is added back.
    """
    v = Y.values
    n = Y.n
    x = v - v[0]
    z = x.mean(axis=0) - (2.0 / n) * x[: n // 2].sum(axis=0)
    if n % 2:
        z += v[0] / n
    z.flags.writeable = False
    return z


def lepski_select(z: np.ndarray, n: int, sigma: float, c_lepski: float = C_LEPSKI) -> int:
    """Smallest k such that every window [m, j] with k <= m <= j <= d = len(z)
    has energy sum(z[m..j]**2) <= c_lepski * j * (sigma^2 / n) * ln(max(d, n));
    d if none.

    Since the summands are non-negative the binding window for each j
    starts at m = k, so the condition reduces to
    C[k-1] >= max_{j >= k} (C[j] - thr(j)) with C the prefix sums of
    z**2, evaluated here with one suffix-max scan.
    """
    if not check_real("c_lepski", c_lepski) > 0:
        raise ValidationError(f"c_lepski must be > 0, got {c_lepski}")
    # n is read as a real too, so an int beyond the float range is refused by name.
    sigma, n = check_sigma(sigma), check_real("n", check_integer("n", n, 1))
    zv = check_array("z", z)
    d = zv.size
    thr = c_lepski * np.arange(1, d + 1) * (sigma * sigma / n) * math.log(max(d, n))
    csum = np.concatenate([[0.0], np.cumsum(zv * zv)])
    excess = csum[1:] - thr
    suffix_max = np.maximum.accumulate(excess[::-1])[::-1]
    hits = np.nonzero(csum[:-1] >= suffix_max)[0]
    return int(hits[0]) + 1 if hits.size else d


def method1_select(z: np.ndarray) -> int:
    """Smallest T minimizing the two-regime within-group SSE of the surrogate.

    Each group's SSE is ``sum z^2 - (sum z)^2 / size``, read off running
    sums of z and z^2 after z is shifted by its first value, so a large
    common offset does not cancel.  The complementary group is empty at
    T = d and contributes 0.
    """
    zv = check_array("z", z)
    d = zv.size
    zv = zv - zv[0]
    sums = np.cumsum(zv)
    squares = np.cumsum(zv * zv)
    sizes = np.arange(1, d + 1)
    scores = squares - sums * sums / sizes
    tail_sums = sums[-1] - sums[:-1]
    scores[:-1] += squares[-1] - squares[:-1] - tail_sums * tail_sums / sizes[-2::-1]
    return int(np.argmin(scores)) + 1


def subsample_size(n: int, n_sub: int, frac: float) -> int:
    """Rows per method-2 subsample, floor(frac * n), after checking the tuning."""
    check_integer("n_sub", n_sub, 2)
    m = int(check_fraction("frac", frac) * n)
    if m < 4:
        raise ValidationError(f"subsample of {m} rows is too small (need >= 4)")
    return m


def method2_select(Y: SignalMatrix, n_sub: int, frac: float, seed: int) -> int:
    """Smallest T minimizing the variance of the estimated change fraction
    over n_sub sorted subsamples of floor(frac * n) rows each.

    The same subsamples are reused for every T; the variance is the
    unbiased one.  Each subset is its own ``rng.choice`` draw, since one
    vectorised draw would take other subsets from the stream.  Each draw
    marks its rows in its own row of a boolean mask, and the mask's
    nonzero columns, read row by row, are the sorted subsets: no sort
    runs, and a first ``np.sort`` would add about 0.25 MB to the
    process's memory.
    """
    m = subsample_size(Y.n, n_sub, frac)
    rng = np.random.default_rng(check_integer("seed", seed, 0))
    drawn = np.zeros((n_sub, Y.n), dtype=bool)
    for subset in drawn:
        subset[rng.choice(Y.n, size=m, replace=False)] = True
    rows = np.nonzero(drawn)[1].reshape(n_sub, m)
    tau_hats = (subsample_argmins(Y.values, rows) + 2) / m
    return int(np.argmin(tau_hats.var(axis=0, ddof=1))) + 1


def estimate_adaptive(Y: SignalMatrix, sigma: float, c_lepski: float = C_LEPSKI) -> ChangePointFit:
    """Plug the windowed-energy rule's truncation level into the change-point fit."""
    return estimate_tau(Y, lepski_select(surrogate(Y), Y.n, sigma, c_lepski))
