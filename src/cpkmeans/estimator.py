"""Two-class k-means change-point estimator.

The split index is the k in {2, ..., n-2} minimizing the total
within-segment sum of squares of the first T coordinates; the estimated
change-point fraction is k / n.  Fits read that sum of squares off the
centred CUSUM kernels in ``_kernels``, which evaluate every split at
once.  ``objective_bruteforce`` recomputes one split's sum of squares by
the direct mean-then-SSE formula and exists purely to cross-check them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import objective_row, objective_table
from .errors import ValidationError
from .model import SignalMatrix

__all__ = [
    "ChangePointFit",
    "objective_bruteforce",
    "estimate_tau",
    "sweep_estimate",
]


@dataclass(frozen=True)
class ChangePointFit:
    """Result of one fit: chosen split, its fraction, and the full per-k criterion.

    ``objective`` is read-only.
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


def objective_bruteforce(Y: SignalMatrix, T: int, k: int) -> float:
    """Two-segment SSE of the first T coordinates when rows split after row k.

    Computed by direct segment means and deviations, as the kernels' oracle.
    """
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


def sweep_estimate(Y: SignalMatrix, T_list) -> tuple[np.ndarray, np.ndarray]:
    """Fit every requested truncation level off one shared objective table.

    Returns ``(k_hat, table)``: the intp split of each level in ``T_list``
    order, the first minimum of its row as in ``estimate_tau``, and the read-only
    (d, n - 3) table, whose row T - 1 is ``estimate_tau(Y, T).objective`` bit for bit.
    """
    ts = np.fromiter(T_list, dtype=np.intp)
    if not ts.size:
        raise ValidationError("T_list must be non-empty")
    _check_t(Y, int(ts.min()))
    _check_t(Y, int(ts.max()))
    table = objective_table(np.ascontiguousarray(Y.values))
    table.flags.writeable = False
    return table[ts - 1].argmin(axis=1) + 2, table
