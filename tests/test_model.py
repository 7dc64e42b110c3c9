import math
import re

import numpy as np
import pytest

from cpkmeans import (
    ModelSpec,
    SignalMatrix,
    ValidationError,
    estimate_tau,
    gap_squared,
    generate_sample,
    rate_psi,
    sweep_estimate,
)

from helpers import generate_sample_reference


def test_generate_noiseless_null_is_zero_matrix():
    spec = ModelSpec(n=6, d=3, tau=0.5, theta_minus=[0, 0, 0], theta_plus=[0, 0, 0], sigma=0.0)
    sample = generate_sample(spec, 123)
    assert np.array_equal(sample.values, np.zeros((6, 3)))


def test_generate_noiseless_segments():
    spec = ModelSpec(n=6, d=2, tau=1 / 3, theta_minus=[1, 0], theta_plus=[0, 1], sigma=0.0)
    sample = generate_sample(spec, 0)
    expected = np.array([[1, 0], [1, 0], [0, 1], [0, 1], [0, 1], [0, 1]], dtype=float)
    assert np.array_equal(sample.values, expected)


def test_generate_determinism():
    spec = ModelSpec(n=8, d=3, tau=0.5, theta_minus=[1, 2, 3], theta_plus=[0, 0, 0], sigma=1.5)
    a = generate_sample(spec, 42)
    b = generate_sample(spec, 42)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize(
    "n, tau, sigma, change_index",
    [(4000, 0.3, 1.0, 1200), (50, 0.3, 0.0, 15), (50, 0.001, 2.5, 1), (50, 0.999, 2.5, 49)],
)
def test_generate_matches_means_plus_noise_bit_for_bit(n, tau, sigma, change_index):
    # tau = 0.001 and 0.999 clamp the change index to its edges 1 and n - 1.
    # Zero mean coordinates with sigma = 0 add signed zeros (0 * z < 0 is -0.0),
    # so the bytes are compared, not the values.
    d = 20
    rng = np.random.default_rng(n)
    theta_plus = rng.normal(size=d)
    theta_plus[:5] = 0.0
    spec = ModelSpec(
        n=n, d=d, tau=tau, theta_minus=rng.normal(size=d), theta_plus=theta_plus, sigma=sigma
    )
    assert spec.change_index == change_index
    for seed in (0, 1, 2**63 - 2):
        sample = generate_sample(spec, seed).values
        assert sample.tobytes() == generate_sample_reference(spec, seed).tobytes()


def test_generate_row_means_converge():
    # Sample mean per entry over many seeds approaches the block mean matrix.
    spec = ModelSpec(n=6, d=2, tau=0.5, theta_minus=[1.0, -2.0], theta_plus=[0.5, 0.5], sigma=1.0)
    seeds = 10_000
    acc = np.zeros((6, 2))
    for seed in range(seeds):
        acc += generate_sample(spec, seed).values
    acc /= seeds
    target = np.vstack([np.tile([1.0, -2.0], (3, 1)), np.tile([0.5, 0.5], (3, 1))])
    assert np.max(np.abs(acc - target)) < 5 * spec.sigma / math.sqrt(seeds)


def test_change_index_rounding_and_clamping():
    assert ModelSpec(6, 1, 1 / 3, [0.0], [1.0], 0.0).change_index == 2
    assert ModelSpec(10, 1, 0.04, [0.0], [1.0], 0.0).change_index == 1  # round would give 0
    assert ModelSpec(10, 1, 0.96, [0.0], [1.0], 0.0).change_index == 9


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=3, d=1, tau=0.5, theta_minus=[0.0], theta_plus=[0.0], sigma=1.0),
        dict(n=8, d=2, tau=0.0, theta_minus=[0, 0], theta_plus=[0, 0], sigma=1.0),
        dict(n=8, d=2, tau=1.0, theta_minus=[0, 0], theta_plus=[0, 0], sigma=1.0),
        dict(n=8, d=2, tau=0.5, theta_minus=[0, 0, 0], theta_plus=[0, 0], sigma=1.0),
        dict(n=8, d=2, tau=0.5, theta_minus=[0, 0], theta_plus=[0, 0], sigma=-1.0),
        dict(n=8, d=2, tau=0.5, theta_minus=[0, 0], theta_plus=[0, 0], sigma=math.inf),
        dict(n=8, d=2, tau=0.5, theta_minus=[0, 0], theta_plus=[0, 0], sigma=math.nan),
        dict(n=8.0, d=2, tau=0.5, theta_minus=[0, 0], theta_plus=[0, 0], sigma=1.0),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValidationError):
        ModelSpec(**kwargs)


def test_signal_matrix_copies_the_callers_array():
    values = np.arange(12.0).reshape(4, 3)
    matrix = SignalMatrix(values)
    assert not np.shares_memory(matrix.values, values)
    values[0, 0] = 99.0
    assert matrix.values[0, 0] == 0.0
    assert not matrix.values.flags.writeable
    assert values.flags.writeable


def test_generated_sample_is_read_only_and_checked():
    spec = ModelSpec(n=6, d=3, tau=0.5, theta_minus=[0, 0, 0], theta_plus=[1, 1, 1], sigma=1.0)
    sample = generate_sample(spec, 4)
    assert not sample.values.flags.writeable
    with pytest.raises(ValueError):
        sample.values[0, 0] = 1.0
    # The adopted array passes the same checks as a copied one.
    for bad in (np.zeros((3, 2)), np.zeros((4, 0)), np.zeros(8), np.array([[np.inf, 0.0]] * 4)):
        with pytest.raises(ValidationError):
            SignalMatrix._adopt(bad)


def test_signal_matrix_validation():
    with pytest.raises(ValidationError):
        SignalMatrix(np.zeros((3, 2)))  # too few rows
    with pytest.raises(ValidationError):
        SignalMatrix(np.array([[np.nan, 0.0]] * 4))


def test_signal_matrix_refuses_values_whose_objective_can_overflow():
    # The fit is scale-invariant, but the kernels square the values, and near
    # 1e160 those squares overflow into a wrong split.
    x = np.random.default_rng(0).standard_normal((20, 3))
    x[12:] += 3.0
    for scale in (1.0, 1e150):  # within sqrt(float max / (16 n^2 d)) = 9.676e151
        sample = SignalMatrix(x * scale)
        assert estimate_tau(sample, 3).k_hat == 12
        assert sweep_estimate(sample, [3])[0].tolist() == [12]
    bound = re.escape("values must be finite and lie in [-9.676e+151, 9.676e+151] for a (20, 3)")
    with pytest.raises(ValidationError, match=bound):
        SignalMatrix(x * 1e160)


def test_generate_sample_refuses_an_overflowing_draw():
    # Refused by the kernels' limit, not warned about: the tests turn warnings into errors.
    spec = ModelSpec(n=6, d=3, tau=0.5, theta_minus=[0, 0, 0], theta_plus=[1, 1, 1], sigma=1e308)
    with pytest.raises(ValidationError, match=re.escape("lie in [-3.225e+152, 3.225e+152]")):
        generate_sample(spec, 0)


def test_gap_squared_examples():
    spec = ModelSpec(n=4, d=3, tau=0.5, theta_minus=[1, 0, 2], theta_plus=[0, 0, 0], sigma=0.0)
    assert gap_squared(spec, 2) == 1.0
    assert gap_squared(spec, 3) == 5.0
    same = ModelSpec(n=4, d=3, tau=0.5, theta_minus=[1, 2, 3], theta_plus=[1, 2, 3], sigma=0.0)
    assert gap_squared(same, 1) == 0.0
    with pytest.raises(ValidationError):
        gap_squared(spec, 0)
    with pytest.raises(ValidationError):
        gap_squared(spec, 4)


def test_gap_squared_monotone_and_matches_norm():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(1, 12))
        tm, tp = rng.normal(size=d), rng.normal(size=d)
        spec = ModelSpec(n=6, d=d, tau=0.5, theta_minus=tm, theta_plus=tp, sigma=0.0)
        gaps = [gap_squared(spec, t) for t in range(1, d + 1)]
        assert all(b >= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] == pytest.approx(float(np.sum((tp - tm) ** 2)), rel=1e-12)


def test_rate_psi_examples():
    assert rate_psi(100, 10, 1.0, 1.0) == pytest.approx(0.01)
    assert rate_psi(10, 1000, 1.0, 1.0) == pytest.approx(10.0)
    assert rate_psi(10, 5, 0.0, 1.0) == math.inf
    assert rate_psi(10, 5, 0.0, 0.0) == 0.0
    assert rate_psi(10, 5, 2.0, 0.0) == 0.0
    with pytest.raises(ValidationError):
        rate_psi(0, 1, 1.0, 1.0)
    with pytest.raises(ValidationError):
        rate_psi(10, 1, -1.0, 1.0)


def test_a_new_sample_never_overwrites_a_live_one():
    spec = ModelSpec(n=6, d=3, tau=0.5, theta_minus=[0, 0, 0], theta_plus=[1, 1, 1], sigma=1.0)
    first = generate_sample(spec, 4)
    kept = first.values.copy()
    second = generate_sample(spec, 5)
    assert not np.shares_memory(first.values, second.values)
    assert np.array_equal(first.values, kept)
    del first, second
    assert np.array_equal(generate_sample(spec, 4).values, kept)
