"""Closed-form tail bounds, summary statistics, and line fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "SummaryStats",
    "gaussian_tail_bound",
    "chi_square_tail_bound",
    "chi_square_moderate_bound",
    "fit_line",
    "summarize",
    "summarize_columns",
]


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    median: float
    variance: float
    std_dev: float
    count: int


def gaussian_tail_bound(x: float) -> float:
    """Upper bound on P(|N(0,1)| > x), capped at 1."""
    if x < 0:
        raise ValidationError(f"x must be >= 0, got {x}")
    return min(1.0, 2.0 * math.exp(-x * x / 2.0))


def chi_square_tail_bound(k: int, u_sq: float) -> float:
    """Large-deviation bound on P(chi2_k >= u_sq); only claimed for u_sq >= 4k."""
    if int(k) != k or k < 1:
        raise ValidationError(f"k must be an integer >= 1, got {k}")
    if u_sq < 4 * k:
        raise ValidationError(f"bound requires u_sq >= 4k = {4 * k}, got {u_sq}")
    return math.exp(-u_sq / 8.0)


def chi_square_moderate_bound(k: int, z: float) -> float:
    """Moderate-deviation bound on P(chi2_k - k > z) for z > 0."""
    if int(k) != k or k < 1:
        raise ValidationError(f"k must be an integer >= 1, got {k}")
    if not z > 0:
        raise ValidationError(f"z must be > 0, got {z}")
    return math.exp(-z * z / (16.0 * k))


def fit_line(xs, ys) -> tuple[float, float]:
    """Ordinary least-squares (slope, intercept)."""
    x = np.asarray(xs, dtype=np.float64).ravel()
    y = np.asarray(ys, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValidationError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValidationError("need at least 2 points")
    xc = x - x.mean()
    sxx = xc @ xc
    if sxx == 0.0:
        raise ValidationError("xs are all identical; slope undefined")
    slope = (xc @ (y - y.mean())) / sxx
    return float(slope), float(y.mean() - slope * x.mean())


def summarize(values) -> SummaryStats:
    """Mean, median, unbiased variance and standard deviation of a sample.

    The median for even counts is the midpoint of the two central order
    statistics; a single value has variance 0.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValidationError("cannot summarize an empty sample")
    variance = float(arr.var(ddof=1)) if arr.size > 1 else 0.0
    return SummaryStats(
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        variance=variance,
        std_dev=math.sqrt(variance),
        count=int(arr.size),
    )


def summarize_columns(grid) -> list[SummaryStats]:
    """``summarize`` of each column of a 2-D array, equal to it bit for bit.

    The columns are copied into the rows of one C-ordered block, so each
    statistic is one numpy call along its rows, which sums and partitions
    each row as ``summarize`` does its contiguous copy of the column.
    """
    rows = np.array(np.asarray(grid, dtype=np.float64).T, order="C")
    count = rows.shape[1]
    if count < 2:
        return [summarize(row) for row in rows]
    variances = rows.var(axis=1, ddof=1).tolist()
    return [
        SummaryStats(mean=mean, median=median, variance=variance,
                     std_dev=math.sqrt(variance), count=count)
        for mean, median, variance in zip(
            rows.mean(axis=1).tolist(), np.median(rows, axis=1).tolist(), variances
        )
    ]
