"""Two-class k-means change-point estimator.

The split index is the k in {2, ..., n-2} minimizing the total
within-segment sum of squares of the first T coordinates; the estimated
change-point fraction is k / n.  Fits read that sum of squares off the
centred CUSUM kernels in ``_kernels``, which evaluate every split at
once; ``objective`` gives the same centred value for one split, and
``objective_bruteforce`` recomputes it by the direct mean-then-SSE
formula and exists purely to cross-check the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import objective_row, objective_table
from .errors import ValidationError
from .model import SignalMatrix

__all__ = [
    "ChangePointFit",
    "objective",
    "objective_bruteforce",
    "estimate_tau",
    "sweep_estimate",
]


@dataclass(frozen=True)
class ChangePointFit:
    """Result of one fit: chosen split, its fraction, and the full per-k criterion.

    ``objective`` is read-only.  A fit from ``sweep_estimate`` holds a view
    of the sweep's shared objective table, not a copy of its row.
    """

    k_hat: int
    tau_hat: float
    T_used: int
    objective: np.ndarray  # objective[i] = criterion at split k = i + 2


def _check_t(Y: SignalMatrix, T: int):
    if not 1 <= T <= Y.d:
        raise ValidationError(f"T must lie in [1, {Y.d}], got {T}")


def _check_k(Y: SignalMatrix, k: int):
    # Any split with two non-empty segments is evaluable; the *estimator*
    # restricts its argmin to {2, ..., n-2}.
    if not 1 <= k <= Y.n - 1:
        raise ValidationError(f"k must lie in [1, {Y.n - 1}], got {k}")


def objective(Y: SignalMatrix, T: int, k: int) -> float:
    """Two-segment SSE of the first T coordinates when rows split after row k.

    Computed in the kernels' centred CUSUM form, for this one split.
    """
    _check_t(Y, T)
    _check_k(Y, k)
    x = Y.values[:, :T] - Y.values[0, :T]
    total = x.sum(axis=0)
    cusum = x[:k].sum(axis=0) - (k / Y.n) * total
    tss = np.sum(x * x) - total @ total / Y.n
    return float(tss - Y.n / (k * (Y.n - k)) * (cusum @ cusum))


def objective_bruteforce(Y: SignalMatrix, T: int, k: int) -> float:
    """Same contract as ``objective``, by direct segment means and deviations."""
    _check_t(Y, T)
    _check_k(Y, k)
    first = Y.values[:k, :T]
    second = Y.values[k:, :T]
    return float(
        ((first - first.mean(axis=0)) ** 2).sum()
        + ((second - second.mean(axis=0)) ** 2).sum()
    )


def estimate_tau(Y: SignalMatrix, T: int) -> ChangePointFit:
    """Minimize the objective over k in {2, ..., n-2} at truncation level T."""
    _check_t(Y, T)
    # One row of the objective table, summed in the table's order, so it
    # reproduces row T of the full table used by sweep_estimate bit for bit
    # and single fits and sweeps agree exactly.  The row is a fresh array.
    row = objective_row(Y.values, T)
    row.flags.writeable = False
    k_hat = int(np.argmin(row)) + 2  # first minimum: ties break to the smallest k
    return ChangePointFit(k_hat=k_hat, tau_hat=k_hat / Y.n, T_used=T, objective=row)


def sweep_estimate(Y: SignalMatrix, T_list) -> list[ChangePointFit]:
    """Fit every requested truncation level off one shared objective table.

    The table is made read-only, every k_hat comes from one argmin over
    the requested rows (first minimum, as in ``estimate_tau``), and each
    fit's ``objective`` is a view of its table row.
    """
    ts = [int(t) for t in T_list]
    if not ts:
        raise ValidationError("T_list must be non-empty")
    _check_t(Y, min(ts))
    _check_t(Y, max(ts))
    table = objective_table(np.ascontiguousarray(Y.values))
    table.flags.writeable = False
    k_hats = (table[np.array(ts) - 1].argmin(axis=1) + 2).tolist()
    n = Y.n
    return [
        ChangePointFit(k_hat=k, tau_hat=k / n, T_used=t, objective=table[t - 1])
        for t, k in zip(ts, k_hats)
    ]
