import math

import numpy as np
import pytest

from cpkmeans import (
    ValidationError,
    chi_square_moderate_bound,
    chi_square_tail_bound,
    fit_line,
    gaussian_tail_bound,
    summarize,
)
from cpkmeans.stats import _median, summarize_columns


def test_gaussian_tail_bound_values():
    assert gaussian_tail_bound(0.0) == 1.0
    assert gaussian_tail_bound(2.0) == pytest.approx(2 * math.exp(-2.0), rel=1e-12)
    with pytest.raises(ValidationError):
        gaussian_tail_bound(-0.1)


def test_chi_square_tail_bound_values():
    assert chi_square_tail_bound(1, 4.0) == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert chi_square_tail_bound(2, 8.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    with pytest.raises(ValidationError):
        chi_square_tail_bound(2, 7.9)  # below 4k, bound not claimed
    with pytest.raises(ValidationError):
        chi_square_tail_bound(0, 4.0)


def test_chi_square_moderate_bound_values():
    assert chi_square_moderate_bound(4, 4.0) == pytest.approx(math.exp(-0.25), rel=1e-12)
    assert chi_square_moderate_bound(3, 1e-12) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        chi_square_moderate_bound(3, 0.0)


def test_bounds_monotone_in_deviation():
    xs = np.linspace(0, 5, 21)
    g = [gaussian_tail_bound(x) for x in xs]
    assert all(b <= a for a, b in zip(g, g[1:]))
    for k in (1, 3, 8):
        us = np.linspace(4 * k, 12 * k, 15)
        c = [chi_square_tail_bound(k, u) for u in us]
        assert all(b <= a for a, b in zip(c, c[1:]))
        zs = np.linspace(0.1, 6 * k, 15)
        m = [chi_square_moderate_bound(k, z) for z in zs]
        assert all(b <= a for a, b in zip(m, m[1:]))


def test_bounds_dominate_mc_tails_small():
    # Smaller-scale version of the acceptance check.
    rng = np.random.default_rng(40)
    draws = 100_000
    normal = np.abs(rng.standard_normal(draws))
    for x in (0.5, 1.0, 2.0, 3.0):
        freq = float((normal > x).mean())
        se = math.sqrt(max(freq, 1e-12) * (1 - freq) / draws)
        assert freq + 3 * se <= gaussian_tail_bound(x)
    for k in (1, 5):
        chi = rng.chisquare(k, draws)
        for u_sq in (4 * k, 8 * k):
            freq = float((chi >= u_sq).mean())
            se = math.sqrt(max(freq, 1e-12) * (1 - freq) / draws)
            assert freq + 3 * se <= chi_square_tail_bound(k, u_sq)
        for z in (math.sqrt(k), 2 * k):
            freq = float((chi - k > z).mean())
            se = math.sqrt(max(freq, 1e-12) * (1 - freq) / draws)
            assert freq + 3 * se <= chi_square_moderate_bound(k, z)


def test_fit_line_exact_lines():
    xs = np.array([0.0, 1.0, 2.0, 5.0])
    slope, intercept = fit_line(xs, -xs + 3.0)
    assert slope == pytest.approx(-1.0, rel=1e-12)
    assert intercept == pytest.approx(3.0, rel=1e-12)
    slope, intercept = fit_line([0.0, 1.0], [0.0, 2.0])
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)


def test_fit_line_matches_normal_equations():
    rng = np.random.default_rng(41)
    for _ in range(20):
        m = int(rng.integers(2, 40))
        xs = rng.normal(0, 3, m)
        if np.ptp(xs) == 0:
            xs[0] += 1.0
        ys = rng.normal(0, 2, m)
        # independent route: solve the 2x2 normal equations directly
        a = np.array([[m, xs.sum()], [xs.sum(), (xs * xs).sum()]])
        b = np.array([ys.sum(), (xs * ys).sum()])
        intercept_ref, slope_ref = np.linalg.solve(a, b)
        slope, intercept = fit_line(xs, ys)
        assert slope == pytest.approx(slope_ref, rel=1e-10, abs=1e-10)
        assert intercept == pytest.approx(intercept_ref, rel=1e-10, abs=1e-10)


def test_fit_line_affine_equivariance():
    rng = np.random.default_rng(42)
    xs = rng.normal(size=12)
    ys = rng.normal(size=12)
    slope, _ = fit_line(xs, ys)
    a, b, c, e = 2.5, -1.0, -0.5, 4.0
    slope2, _ = fit_line(a * xs + b, c * ys + e)
    assert slope2 == pytest.approx(c * slope / a, rel=1e-10)


def test_fit_line_validation():
    with pytest.raises(ValidationError, match="need at least 2 points"):
        fit_line([1.0], [2.0])
    with pytest.raises(ValidationError, match="xs are all identical; slope undefined"):
        fit_line([1.0, 1.0], [2.0, 3.0])
    with pytest.raises(ValidationError, match="length mismatch: 2 vs 1"):
        fit_line([1.0, 2.0], [2.0])


def test_summarize_examples():
    s = summarize([1.0, 1.0, 1.0])
    assert (s.mean, s.median, s.variance) == (1.0, 1.0, 0.0)
    s = summarize([0.0, 1.0, 2.0, 3.0])
    assert s.mean == pytest.approx(1.5)
    assert s.median == pytest.approx(1.5)
    assert s.variance == pytest.approx(5 / 3, rel=1e-12)
    assert s.std_dev == pytest.approx(math.sqrt(5 / 3), rel=1e-12)
    assert s.count == 4


def test_summarize_single_value():
    s = summarize([2.5])
    assert (s.mean, s.median, s.variance, s.std_dev, s.count) == (2.5, 2.5, 0.0, 0.0, 1)


def test_summarize_mc_sanity():
    rng = np.random.default_rng(43)
    s = summarize(rng.standard_normal(100_000))
    assert abs(s.mean) < 0.02
    assert abs(s.variance - 1.0) < 0.02


def test_summarize_empty_errors():
    with pytest.raises(ValidationError):
        summarize([])
    # A 2-D sample was flattened into 4 values, and a string raised numpy's
    # bare ValueError.
    for sample in ([[1, 2], [3, 4]], "abc", [[1], [2, 3]], ["1", "2"], [1 + 2j]):
        with pytest.raises(ValidationError, match="^values must be a 1-D array of reals$"):
            summarize(sample)


@pytest.mark.parametrize(
    "shape", [(400, 200), (500, 200), (3, 25), (300, 3), (250, 1), (7, 5), (1, 4), (2, 3)]
)
def test_summarize_columns_equals_summarize_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    grids = [
        rng.normal(size=shape),
        np.abs(rng.integers(2, 98, size=shape) / 100 - 0.3),  # a study's tied abs errors
    ]
    with_nan = rng.normal(size=shape)
    with_nan[0, 0] = np.nan
    grids.append(with_nan)
    for grid in grids:
        got = summarize_columns(grid)
        assert len(got) == shape[1]
        for j, stats in enumerate(got):
            expected = summarize(grid[:, j])
            assert repr(stats) == repr(expected)


def _median_cases(count, rng):
    """Samples of ``count`` values: plain, tied, signed zeros and infinities, and NaN."""
    cases = [
        rng.normal(size=count),
        np.abs(rng.integers(2, 98, size=count) / 100 - 0.3),  # a study's tied abs errors
        rng.choice([0.0, -0.0], size=count),
        rng.choice([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf], size=count),
        np.full(count, np.inf),
    ]
    for at in sorted({0, count // 2, count - 1}):
        for base in cases[:4]:
            with_nan = base.copy()
            with_nan[at] = np.nan
            cases.append(with_nan)
    return cases


@pytest.mark.parametrize("count", [*range(1, 10), 400])
def test_median_equals_np_median_bit_for_bit(count):
    rng = np.random.default_rng(count)
    cases = _median_cases(count, rng)
    for values in cases:
        assert repr(float(_median(values))) == repr(float(np.median(values))), values
    rows = np.stack(cases)
    assert repr(_median(rows).tolist()) == repr(np.median(rows, axis=1).tolist())
