"""Two-segment Gaussian signal model.

An n x d sample has rows drawn around a pre-change mean for the first
``change_index`` rows and around a post-change mean afterwards, with
i.i.d. Gaussian coordinate noise of known standard deviation.  This
module holds the generative spec, the sampler, and the gap / rate /
smoothness functionals the estimators are judged against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "ModelSpec",
    "SignalMatrix",
    "SobolevClass",
    "generate_sample",
    "gap_squared",
    "rate_psi",
    "sobolev_sup",
]


def _readonly_vector(x, d: int, name: str) -> np.ndarray:
    arr = np.array(x, dtype=np.float64, copy=True).ravel()
    if arr.size != d:
        raise ValidationError(f"{name} must have length d={d}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ModelSpec:
    """Generative description of a two-segment Gaussian sample.

    ``tau`` is the change-point fraction; the concrete change row is
    ``change_index`` (the last row drawn from the pre-change mean).
    """

    n: int
    d: int
    tau: float
    theta_minus: np.ndarray
    theta_plus: np.ndarray
    sigma: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 4:
            raise ValidationError(f"n must be an integer >= 4, got {self.n}")
        if int(self.d) != self.d or self.d < 1:
            raise ValidationError(f"d must be an integer >= 1, got {self.d}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "d", int(self.d))
        if not 0.0 < self.tau < 1.0:
            raise ValidationError(f"tau must lie in (0, 1), got {self.tau}")
        if not self.sigma >= 0.0:
            raise ValidationError(f"sigma must be >= 0, got {self.sigma}")
        object.__setattr__(
            self, "theta_minus", _readonly_vector(self.theta_minus, self.d, "theta_minus")
        )
        object.__setattr__(
            self, "theta_plus", _readonly_vector(self.theta_plus, self.d, "theta_plus")
        )

    @property
    def change_index(self) -> int:
        """Last row index (1-based) with the pre-change mean, clamped to [1, n-1]."""
        return min(max(int(round(self.n * self.tau)), 1), self.n - 1)


@dataclass(frozen=True)
class SignalMatrix:
    """Immutable n x d observation matrix, one signal per row."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValidationError(f"values must be 2-dimensional, got ndim={arr.ndim}")
        if arr.shape[0] < 4:
            raise ValidationError(f"need at least 4 rows, got {arr.shape[0]}")
        if arr.shape[1] < 1:
            raise ValidationError("need at least 1 coordinate per row")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("all entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SobolevClass:
    """Smoothness ball: tail energy beyond index K decays like K**(-2s)."""

    s: float
    L: float

    def __post_init__(self):
        if not self.s > 0:
            raise ValidationError(f"s must be > 0, got {self.s}")
        if not self.L > 0:
            raise ValidationError(f"L must be > 0, got {self.L}")

    def contains(self, theta) -> bool:
        return sobolev_sup(theta, self.s) <= self.L**2


def generate_sample(spec: ModelSpec, seed: int) -> SignalMatrix:
    """Draw one sample from the spec; identical (spec, seed) pairs give identical output."""
    # In place, so the draw is the only (n, d) array; IEEE addition commutes,
    # so sigma * z + mean equals mean + sigma * z bit for bit.
    values = np.random.default_rng(seed).standard_normal((spec.n, spec.d))
    values *= spec.sigma
    values[: spec.change_index] += spec.theta_minus
    values[spec.change_index :] += spec.theta_plus
    return SignalMatrix(values)


def gap_squared(spec: ModelSpec, T: int) -> float:
    """Squared distance between the segment means over the first T coordinates."""
    if not 1 <= T <= spec.d:
        raise ValidationError(f"T must lie in [1, {spec.d}], got {T}")
    diff = spec.theta_minus[:T] - spec.theta_plus[:T]
    return float(diff @ diff)


def rate_psi(n: int, T: int, delta_t_sq: float, sigma: float) -> float:
    """Theoretical error-rate functional; +inf for a zero gap with noise, 0 without noise."""
    if n < 1 or T < 1:
        raise ValidationError(f"n and T must be >= 1, got n={n}, T={T}")
    if delta_t_sq < 0 or sigma < 0:
        raise ValidationError("delta_t_sq and sigma must be >= 0")
    if sigma == 0.0:
        return 0.0
    if delta_t_sq == 0.0:
        return math.inf
    base = sigma * sigma / (n * delta_t_sq)
    return base * max(1.0, base * T)


def sobolev_sup(theta, s: float) -> float:
    """max over K of K**(2s) times the tail energy of theta from index K on.

    The vector is treated as zero-padded beyond its length, so the max
    runs over K in {1, ..., len(theta)}; an empty vector gives 0.
    """
    if not s > 0:
        raise ValidationError(f"s must be > 0, got {s}")
    arr = np.asarray(theta, dtype=np.float64).ravel()
    if arr.size == 0:
        return 0.0
    if not np.all(np.isfinite(arr)):
        raise ValidationError("theta must be finite")
    tails = np.cumsum((arr * arr)[::-1])[::-1]
    k = np.arange(1, arr.size + 1, dtype=np.float64)
    return float(np.max(k ** (2.0 * s) * tails))
