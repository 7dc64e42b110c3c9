"""Two-class k-means change-point estimator.

The split index is the k in {2, ..., n-2} minimizing the total
within-segment sum of squares of the first T coordinates; the estimated
change-point fraction is k / n.  Fits read that sum of squares off the
centred CUSUM kernels in ``_kernels``, which evaluate every split at
once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import objective_row, objective_table
from .errors import ValidationError, check_integer, check_integers
from .model import SignalMatrix

__all__ = [
    "ChangePointFit",
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


def estimate_tau(Y: SignalMatrix, T: int) -> ChangePointFit:
    """Minimize the objective over k in {2, ..., n-2} at truncation level T."""
    T = check_integer("T", T, 1, Y.d)
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
    ``T_list`` is any iterable of integers; a float in it is refused, not truncated.
    """
    ts = check_integers("T_list", "every T", T_list, 1, Y.d)
    if not ts.size:
        raise ValidationError("T_list must be non-empty")
    table = objective_table(Y.values)
    # Before the table turns read-only: numpy's argmin copies a read-only array.
    k_hat = table.argmin(axis=1)[ts - 1] + 2
    table.flags.writeable = False
    return k_hat, table
