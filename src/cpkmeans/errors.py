"""The package's error type and the input rules every module checks with.

Each rule returns the int or float it accepts and refuses anything else
with a ``ValidationError`` that names the parameter.
"""

import math
import numbers
import operator


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
    if isinstance(value, numbers.Real) and math.isfinite(value) and (lo is None or value >= lo):
        return float(value)
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
