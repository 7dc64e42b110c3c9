"""Closed-form tail bounds, summary statistics, and line fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_array, check_integer, check_real

__all__ = [
    "SummaryStats",
    "gaussian_tail_bound",
    "chi_square_tail_bound",
    "chi_square_moderate_bound",
    "fit_line",
    "summarize",
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
    x = check_real("x", x, 0)
    return min(1.0, 2.0 * math.exp(-x * x / 2.0))


def chi_square_tail_bound(k: int, u_sq: float) -> float:
    """Large-deviation bound on P(chi2_k >= u_sq); only claimed for u_sq >= 4k."""
    u_sq = check_real("u_sq", u_sq, 4 * check_integer("k", k, 1))
    return math.exp(-u_sq / 8.0)


def chi_square_moderate_bound(k: int, z: float) -> float:
    """Moderate-deviation bound on P(chi2_k - k > z) for z > 0."""
    k = check_real("k", check_integer("k", k, 1))  # an int beyond the float range refused by name
    if not check_real("z", z) > 0:
        raise ValidationError(f"z must be > 0, got {z}")
    return math.exp(-z * z / (16.0 * k))


def fit_line(xs, ys) -> tuple[float, float]:
    """Ordinary least-squares (slope, intercept)."""
    x, y = check_array("xs", xs), check_array("ys", ys)
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
    statistics, NaN as in ``np.median``; a single value has variance 0.
    """
    try:
        sample = np.asarray(values)
    except ValueError:  # a ragged nesting
        sample = None
    if sample is None or sample.ndim != 1 or sample.dtype.kind not in "biuf":
        raise ValidationError("values must be a 1-D array of reals")
    return summarize_columns(sample[:, None])[0]


def _median(rows: np.ndarray):
    """``np.median`` along the last axis, bit for bit, without its ``numpy.ma`` import.

    It partitions at the same ``kth``, the middle order statistics and the
    last entry, and takes the mean of the middle slice.  NaN sorts last, so
    where the partition's last entry is NaN it is the median, as in
    ``np.median``, whose check for that imports ``numpy.ma`` (1.1 MB).
    """
    size = rows.shape[-1]
    half = size // 2
    kth = [half, -1] if size % 2 else [half - 1, half, -1]
    part = np.partition(rows, kth, axis=-1)
    median = part[..., half - 1 + size % 2:half + 1].mean(axis=-1)
    last = part[..., -1]
    return np.where(np.isnan(last), last, median)


def summarize_columns(grid) -> list[SummaryStats]:
    """``summarize`` of each column of a 2-D array.

    The columns are copied into the rows of one C-ordered block, so each
    statistic is one numpy call along its rows, which sums and partitions
    each row as a contiguous 1-D array would be.  The median is
    ``_median``'s, so no ``numpy.ma`` is loaded.  The block, and the
    median's partitioned copy of it, are as large as the grid, so a
    caller bounds the memory by passing a few columns at a time: each
    column's stats do not depend on the others.
    """
    rows = np.array(np.asarray(grid, dtype=np.float64).T, order="C")
    count = rows.shape[1]
    if count == 0:
        raise ValidationError("cannot summarize an empty sample")
    variances = rows.var(axis=1, ddof=1).tolist() if count > 1 else [0.0] * len(rows)
    return [
        SummaryStats(mean=mean, median=median, variance=variance,
                     std_dev=math.sqrt(variance), count=count)
        for mean, median, variance in zip(
            rows.mean(axis=1).tolist(), _median(rows).tolist(), variances
        )
    ]
