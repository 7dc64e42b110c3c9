"""Two-class k-means change-point estimator.

The split index is the k in {2, ..., n-2} minimizing the total
within-segment sum of squares of the first T coordinates; the estimated
change-point fraction is k / n.  The fast path evaluates all splits via
prefix sums; ``objective_bruteforce`` recomputes single values by the
direct mean-then-SSE formula and exists purely to cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import objective_row, objective_table
from .errors import ValidationError
from .model import SignalMatrix

__all__ = [
    "ChangePointFit",
    "PrefixSums",
    "build_prefix_sums",
    "objective",
    "objective_bruteforce",
    "estimate_tau",
    "sweep_estimate",
]


@dataclass(frozen=True)
class ChangePointFit:
    """Result of one fit: chosen split, its fraction, and the full per-k criterion."""

    k_hat: int
    tau_hat: float
    T_used: int
    objective: np.ndarray  # objective[i] = criterion at split k = i + 2


@dataclass(frozen=True)
class PrefixSums:
    """Row-prefix column sums P (row 0 = zeros) and coordinate-prefix squared mass S2."""

    P: np.ndarray  # (n + 1, d); P[i, j] = sum of Y[:i, j]
    S2: np.ndarray  # (d,); S2[t - 1] = total squared mass of the first t coordinates


def build_prefix_sums(Y: SignalMatrix) -> PrefixSums:
    v = Y.values
    P = np.vstack([np.zeros((1, Y.d)), np.cumsum(v, axis=0)])
    S2 = np.cumsum(np.einsum("ij,ij->j", v, v))
    return PrefixSums(P=P, S2=S2)


def _check_t(Y: SignalMatrix, T: int):
    if not 1 <= T <= Y.d:
        raise ValidationError(f"T must lie in [1, {Y.d}], got {T}")


def _check_k(Y: SignalMatrix, k: int):
    # Any split with two non-empty segments is evaluable; the *estimator*
    # restricts its argmin to {2, ..., n-2}.
    if not 1 <= k <= Y.n - 1:
        raise ValidationError(f"k must lie in [1, {Y.n - 1}], got {k}")


def objective(Y: SignalMatrix, T: int, k: int) -> float:
    """Two-segment SSE of the first T coordinates when rows split after row k."""
    _check_t(Y, T)
    _check_k(Y, k)
    ps = build_prefix_sums(Y)
    p = ps.P[k, :T]
    q = ps.P[Y.n, :T] - p
    return float(ps.S2[T - 1] - p @ p / k - q @ q / (Y.n - k))


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


def _fit_from_row(row: np.ndarray, n: int, T: int) -> ChangePointFit:
    k_hat = int(np.argmin(row)) + 2  # first minimum: ties break to the smallest k
    trace = row.copy()
    trace.flags.writeable = False
    return ChangePointFit(k_hat=k_hat, tau_hat=k_hat / n, T_used=T, objective=trace)


def estimate_tau(Y: SignalMatrix, T: int) -> ChangePointFit:
    """Minimize the objective over k in {2, ..., n-2} at truncation level T."""
    _check_t(Y, T)
    # One row of the objective table, summed in the table's order, so it
    # reproduces row T of the full table used by sweep_estimate bit for bit
    # and single fits and sweeps agree exactly.
    return _fit_from_row(objective_row(Y.values, T), Y.n, T)


def sweep_estimate(Y: SignalMatrix, T_list) -> list[ChangePointFit]:
    """Fit every requested truncation level off one shared objective table."""
    ts = [int(t) for t in T_list]
    if not ts:
        raise ValidationError("T_list must be non-empty")
    for t in ts:
        _check_t(Y, t)
    table = objective_table(np.ascontiguousarray(Y.values))
    return [_fit_from_row(table[t - 1], Y.n, t) for t in ts]
