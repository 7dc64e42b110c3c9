"""The package's error type and the input rules every module checks with.

Each rule returns the int, float or array it accepts and refuses anything
else with a ``ValidationError`` that names the parameter.
"""

import math
import numbers
import operator
import sys

import numpy as np

__all__ = ["ValidationError"]

_INTP = np.iinfo(np.intp)


class ValidationError(ValueError):
    """Input violates a documented precondition."""


def check_integer(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int, in [lo, hi] where given; a float, even an integral one, is refused."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if hi is not None and not lo <= value <= hi:
        raise ValidationError(f"{name} must lie in [{lo}, {hi}], got {value}")
    if lo is not None and value < lo:
        raise ValidationError(f"{name} must be >= {lo}, got {value}")
    return value


def check_real(name: str, value, lo: float | None = None) -> float:
    """``value`` as a finite float, >= lo where given; a string, NaN or infinity is refused."""
    try:
        real = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int beyond the float range
        real = math.inf
    if math.isfinite(real) and (lo is None or real >= lo):
        return real
    bound = "real" if lo is None else f">= {lo}"
    raise ValidationError(f"{name} must be finite and {bound}, got {value!r}")


def check_sigma(sigma) -> float:
    """A noise level: finite and >= 0."""
    return check_real("sigma", sigma, 0)


def check_fraction(name: str, value) -> float:
    """A finite real in the open interval (0, 1), such as tau or frac."""
    value = check_real(name, value)
    if not 0.0 < value < 1.0:
        raise ValidationError(f"{name} must lie in (0, 1), got {value}")
    return value


def check_integers(name: str, entry: str, values, lo: int, hi: int | None = None) -> np.ndarray:
    """``values`` as a fresh 1-D intp array, every ``entry`` checked as by ``check_integer``.

    A value that is not iterable is refused, and so is an entry outside
    the intp range.
    """
    try:
        entries = list(values)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence of integers, got {values!r}") from None

    ints = [check_integer(entry, x, lo, hi) for x in entries]
    try:
        return np.array(ints, dtype=np.intp)
    except OverflowError:  # numpy names no entry, so find the first outside the intp range
        x = next(x for x in ints if not _INTP.min <= x <= _INTP.max)
        raise ValidationError(f"{entry} must fit in intp, got {x}") from None


def check_array(name: str, values, ndim: int = 1, limit=None) -> np.ndarray:
    """``values`` as a non-empty, finite, ``ndim``-D float64 array, copied only to convert it.

    Strings, objects and complex numbers are refused, not converted.
    ``limit``, where given, maps the array's shape to the largest magnitude
    an entry may have, and the refusal of a larger or non-finite one names it.
    """
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged nesting
        array = None
    if array is None or array.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must be an array of reals")
    if array.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got ndim={array.ndim}")
    if not array.size:
        raise ValidationError(f"{name} must be non-empty")
    array = array.astype(np.float64, copy=False)
    # NaN and the infinities show in the extremes, so one min and one max pass find them.
    lo, hi = float(array.min()), float(array.max())
    bound = sys.float_info.max if limit is None else limit(array.shape)
    if not -bound <= lo <= hi <= bound:  # false for NaN, and for an infinity
        within = "" if limit is None else (
            f" and lie in [-{bound:.4g}, {bound:.4g}] for a {array.shape} array,"
            f" got [{lo:.4g}, {hi:.4g}]")
        raise ValidationError(f"{name} must be finite{within}")
    return array
