"""Two-segment Gaussian signal model.

An n x d sample has rows drawn around a pre-change mean for the first
``change_index`` rows and around a post-change mean afterwards, with
i.i.d. Gaussian coordinate noise of known standard deviation.  This
module holds the generative spec, the sampler, and the gap and rate
functionals the estimators are judged against.  Its input checks are the
rules in ``errors``, which every module shares.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._kernels import _workspace
from .errors import (
    ValidationError, check_array, check_fraction, check_integer, check_real, check_sigma,
)

__all__ = [
    "ModelSpec",
    "SignalMatrix",
    "generate_sample",
    "gap_squared",
    "rate_psi",
]


def _readonly_vector(x, d: int, name: str) -> np.ndarray:
    arr = check_array(name, x).copy()
    if arr.size != d:
        raise ValidationError(f"{name} must have length d={d}, got {arr.size}")
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
        store = functools.partial(object.__setattr__, self)
        store("n", check_integer("n", self.n, 4))
        store("d", check_integer("d", self.d, 1))
        store("tau", check_fraction("tau", self.tau))
        store("sigma", check_sigma(self.sigma))
        store("theta_minus", _readonly_vector(self.theta_minus, self.d, "theta_minus"))
        store("theta_plus", _readonly_vector(self.theta_plus, self.d, "theta_plus"))

    @property
    def change_index(self) -> int:
        """Last row index (1-based) with the pre-change mean, clamped to [1, n-1]."""
        return min(max(int(round(self.n * self.tau)), 1), self.n - 1)


def _kernel_limit(shape: tuple[int, int]) -> float:
    """The largest magnitude an entry of an n x d matrix may have.

    With entries in [-M, M], every intermediate of the objective kernels is
    at most 16 n^2 d M^2: a shifted entry is at most 2M, a centred running
    sum 4nM, and the energy sums d of their squares.  So M up to
    sqrt(float max / (16 n^2 d)) keeps every one finite.
    """
    n, d = shape
    return math.sqrt(sys.float_info.max / (16.0 * d)) / n


def _checked_matrix(arr: np.ndarray) -> np.ndarray:
    """A float64 matrix that passed the array rule, made read-only once it has n >= 4 rows."""
    check_integer("n", arr.shape[0], 4)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SignalMatrix:
    """Immutable n x d observation matrix, one signal per row.

    ``SignalMatrix(values)`` copies ``values``, so the caller's array can
    never change the matrix.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = check_array("values", self.values, 2, _kernel_limit).copy(order="K")  # F order stays
        object.__setattr__(self, "values", _checked_matrix(arr))

    @classmethod
    def _adopt(cls, values: np.ndarray) -> SignalMatrix:
        """Wrap, uncopied, a float64 array no one else holds; it is checked and made read-only."""
        matrix = object.__new__(cls)
        values = check_array("values", values, 2, _kernel_limit)
        object.__setattr__(matrix, "values", _checked_matrix(values))
        return matrix

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def generate_sample(spec: ModelSpec, seed: int) -> SignalMatrix:
    """Draw one sample from the spec; identical (spec, seed) pairs give identical output."""
    # In place, so the draw is the only (n, d) array; IEEE addition commutes,
    # so sigma * z + mean equals mean + sigma * z bit for bit.  The draw takes
    # the workspace's "sample" memory: a study's trials share one sample's
    # memory, and a sample someone still holds is never drawn over.
    values = _workspace.empty("sample", (spec.n, spec.d))
    np.random.default_rng(check_integer("seed", seed, 0)).standard_normal(out=values)
    # An overflow leaves an infinity, which _adopt refuses by the kernels' limit.
    with np.errstate(over="ignore"):
        values *= spec.sigma
        values[: spec.change_index] += spec.theta_minus
        values[spec.change_index :] += spec.theta_plus
    return SignalMatrix._adopt(values)


def gap_squared(spec: ModelSpec, T: int) -> float:
    """Squared distance between the segment means over the first T coordinates."""
    T = check_integer("T", T, 1, spec.d)
    diff = spec.theta_minus[:T] - spec.theta_plus[:T]
    return float(diff @ diff)


def rate_psi(n: int, T: int, delta_t_sq: float, sigma: float) -> float:
    """Theoretical error-rate functional; +inf for a zero gap with noise, 0 without noise."""
    # Read as reals too, so an int beyond the float range is refused by name.
    n, T = check_real("n", check_integer("n", n, 1)), check_real("T", check_integer("T", T, 1))
    delta_t_sq, sigma = check_real("delta_t_sq", delta_t_sq, 0), check_sigma(sigma)
    if sigma == 0.0:
        return 0.0
    if delta_t_sq == 0.0:
        return math.inf
    base = sigma * sigma / (n * delta_t_sq)
    return base * max(1.0, base * T)

